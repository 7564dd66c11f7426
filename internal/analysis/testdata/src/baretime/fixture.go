// Package fixture exercises the baretime analyzer.
package fixture

import (
	"time"

	"repro/internal/clock"
)

func bare(d time.Duration, t0 time.Time) {
	_ = time.Now()               // want "time.Now reads the wall clock"
	_ = time.Since(t0)           // want "time.Since reads the wall clock"
	_ = time.Until(t0)           // want "time.Until reads the wall clock"
	<-time.After(d)              // want "time.After reads the wall clock"
	time.AfterFunc(d, func() {}) // want "time.AfterFunc reads the wall clock"
	_ = time.NewTimer(d)         // want "time.NewTimer reads the wall clock"
	_ = time.NewTicker(d)        // want "time.NewTicker reads the wall clock"
	_ = time.Tick(d)             // want "time.Tick reads the wall clock"
	time.Sleep(d)                // want "time.Sleep reads the wall clock"
	now := time.Now              // want "time.Now reads the wall clock"
	_ = now
}

// clocked reads time only through a clock; Time's own methods, After
// among them, read no clock.
func clocked(c clock.Clock, d time.Duration, t0 time.Time) bool {
	c.AfterFunc(d, func() {}).Stop()
	return clock.Real{}.Now().After(t0) || c.Now().Sub(t0) > d
}
