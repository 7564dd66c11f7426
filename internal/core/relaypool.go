package core

import "time"

// RelayPool is unused; goes when benchmark/ reopens (the frozen module
// builds one, wires it into MiddleboxConfig and sessionhost.Config, and
// reads its Stats). A pipelined job runs on its direction's commit
// goroutine (DESIGN.md §14), so there is no pool: it starts nothing and
// its Stats are zero.
type RelayPool struct{}

// NewRelayPool returns an inert RelayPool; workers is ignored.
func NewRelayPool(workers int) *RelayPool { return &RelayPool{} }

// Close does nothing.
func (*RelayPool) Close() {}

// Stats returns zeros.
func (*RelayPool) Stats() RelayPoolStats { return RelayPoolStats{} }

// RelayPoolStats holds the fields the frozen benchmark reads; all zero.
type RelayPoolStats struct {
	Workers          int
	RecordsProcessed int64
	Utilization      float64
	SubmitStalls     int64
	WindowStalls     int64
	MaxInFlight      int64
	ResealP50        time.Duration
	ResealP99        time.Duration
}
