package main

import "time"

// clock is the benchmark's only source of time, so the code that turns
// time into numbers (spans, windows, probes) can be driven by a fake in
// tests and is deterministic there.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// wallClock is the real clock every run outside the tests uses.
type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
