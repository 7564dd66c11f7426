package netsim

import (
	//lint:ignore cryptorand deterministic fault schedules need a seeded, reproducible source; nothing here protects secrets
	"math/rand"
	"net"
	"sync"

	"repro/internal/clock"
)

// This file is the deterministic fault-injection substrate. A
// FaultSpec wraps any link with a seeded, reproducible fault so every
// failure path of the session chain — a hop that stalls mid-record, a
// reset, silent loss, bit corruption, reordering, a one-way partition —
// can be triggered on demand and replayed byte-for-byte from the seed.
// All transformations are pure functions of (spec, byte offsets in the
// faulted direction): nothing depends on wall-clock time or scheduling,
// so the same spec over the same traffic produces the same wire bytes,
// the same error class at each layer, and the same counters.

// FaultKind enumerates the fault classes a FaultSpec can inject.
type FaultKind int

// Fault kinds.
const (
	FaultNone FaultKind = iota
	// FaultDrop silently discards everything after Offset bytes; the
	// writer cannot tell. Models silent in-path loss (a dead NAT
	// binding, a blackholing firewall).
	FaultDrop
	// FaultStall delivers Offset bytes and then wedges: further writes
	// in the faulted direction block until the connection is closed,
	// like a peer advertising a zero receive window mid-record.
	FaultStall
	// FaultReset delivers Offset bytes and then resets the connection
	// in both directions (TCP RST): in-flight data is discarded and
	// both ends see ErrReset.
	FaultReset
	// FaultCorrupt delivers everything but XORs a seeded mask into
	// bytes at PRNG-chosen positions from Offset onward, at most Stride
	// bytes apart. Models in-path bit corruption a transport checksum
	// missed.
	FaultCorrupt
	// FaultReorder swaps the two write chunks straddling Offset: the
	// first chunk past the boundary is held back and delivered after
	// the next one, modeling reordering at a resegmenter boundary. If
	// no second chunk ever follows, the held chunk is lost (the fault
	// degrades to truncation).
	FaultReorder
	// FaultPartition is a one-way blackhole: like FaultDrop but
	// inherently directional — combine with DirAToB or DirBToA to cut
	// exactly one direction from Offset (usually 0) onward.
	FaultPartition
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultReset:
		return "reset"
	case FaultCorrupt:
		return "corrupt"
	case FaultReorder:
		return "reorder"
	case FaultPartition:
		return "partition"
	}
	return "fault(?)"
}

// FaultDir selects which direction(s) of a wrapped link a fault
// applies to. End A is the first conn of a wrapped pair — the dialer,
// for connections made through a Network.
type FaultDir int

// Fault directions.
const (
	DirBoth FaultDir = iota
	DirAToB
	DirBToA
)

// FaultSpec describes one deterministic fault.
type FaultSpec struct {
	// Kind selects the fault class; FaultNone means a clean link.
	Kind FaultKind
	// Offset is how many bytes pass unharmed in each faulted direction
	// before the fault engages. Each direction counts independently.
	Offset int64
	// Seed drives the PRNG behind FaultCorrupt's positions and masks.
	Seed int64
	// Dir restricts the fault to one direction of the link.
	Dir FaultDir
	// Stride bounds the gap between corrupted bytes (FaultCorrupt
	// only); 0 means 512.
	Stride int
}

// faultState tracks one faulted direction's progress. It lives on the
// writing end of that direction, so faults transform bytes "in flight"
// without the writer-visible API changing.
type faultState struct {
	spec FaultSpec

	mu          sync.Mutex
	count       int64 // bytes seen so far in this direction
	rng         *rand.Rand
	nextCorrupt int64  // absolute stream position of the next corrupted byte
	held        []byte // FaultReorder: chunk held back for the swap
	swapped     bool   // FaultReorder: swap already performed
	tripped     bool   // FaultReset: reset already delivered
}

// faultConn wraps one end of a link, applying a faultState to its
// writes. Reads, deadlines, and addressing delegate to the inner conn.
type faultConn struct {
	net.Conn
	st *faultState // nil: this direction is clean

	closeOnce sync.Once
	closedCh  chan struct{}
}

// Clock forwards the inner conn's clock.
func (f *faultConn) Clock() clock.Clock { return clock.Of(f.Conn) }

// Close unblocks any stalled writer, then closes the inner conn.
func (f *faultConn) Close() error {
	f.closeOnce.Do(func() { close(f.closedCh) })
	return f.Conn.Close()
}

// Write applies the direction's fault, if any.
func (f *faultConn) Write(p []byte) (int, error) {
	if f.st == nil || len(p) == 0 {
		return f.Conn.Write(p)
	}
	return f.st.write(f, p)
}

// cleanPrefix returns how many of n bytes starting at stream position
// start lie before the fault offset.
func cleanPrefix(start, off int64, n int) int {
	if start >= off {
		return 0
	}
	if left := off - start; left < int64(n) {
		return int(left)
	}
	return n
}

func (st *faultState) write(f *faultConn, p []byte) (int, error) {
	st.mu.Lock()
	start := st.count
	off := st.spec.Offset
	switch st.spec.Kind {
	case FaultDrop, FaultPartition:
		st.count += int64(len(p))
		keep := cleanPrefix(start, off, len(p))
		st.mu.Unlock()
		if keep > 0 {
			if _, err := f.Conn.Write(p[:keep]); err != nil {
				return 0, err
			}
		}
		// The remainder vanishes in flight; the writer cannot tell.
		return len(p), nil

	case FaultStall:
		keep := cleanPrefix(start, off, len(p))
		st.count += int64(keep)
		st.mu.Unlock()
		if keep > 0 {
			if _, err := f.Conn.Write(p[:keep]); err != nil {
				return 0, err
			}
			if keep == len(p) {
				return len(p), nil
			}
		}
		// Wedged mid-record: block like a zero-window peer until the
		// connection is torn down.
		<-f.closedCh
		return keep, ErrClosedPipe

	case FaultReset:
		if st.tripped {
			st.mu.Unlock()
			return 0, ErrReset
		}
		keep := cleanPrefix(start, off, len(p))
		st.count += int64(keep)
		if keep == len(p) {
			st.mu.Unlock()
			return f.Conn.Write(p)
		}
		st.tripped = true
		st.mu.Unlock()
		if keep > 0 {
			f.Conn.Write(p[:keep]) //nolint:errcheck // reset follows regardless
		}
		if c, ok := f.Conn.(*Conn); ok {
			c.Reset()
		} else {
			f.Conn.Close()
		}
		return keep, ErrReset

	case FaultCorrupt:
		if st.rng == nil {
			st.rng = rand.New(rand.NewSource(st.spec.Seed))
			st.nextCorrupt = off
		}
		stride := st.spec.Stride
		if stride <= 0 {
			stride = 512
		}
		end := start + int64(len(p))
		st.count = end
		var buf []byte
		for st.nextCorrupt < end {
			if buf == nil {
				// Corrupt a copy: the caller's buffer must stay intact.
				buf = append([]byte(nil), p...)
			}
			buf[st.nextCorrupt-start] ^= byte(1 + st.rng.Intn(255))
			st.nextCorrupt += 1 + int64(st.rng.Intn(stride))
		}
		st.mu.Unlock()
		if buf != nil {
			p = buf
		}
		return f.Conn.Write(p)

	case FaultReorder:
		if st.swapped {
			st.mu.Unlock()
			return f.Conn.Write(p)
		}
		end := start + int64(len(p))
		st.count = end
		if end <= off {
			st.mu.Unlock()
			return f.Conn.Write(p)
		}
		if st.held == nil {
			// First chunk past the boundary: hold it back.
			st.held = append([]byte(nil), p...)
			st.mu.Unlock()
			return len(p), nil
		}
		// Second chunk: deliver it first, then the held one.
		held := st.held
		st.held = nil
		st.swapped = true
		st.mu.Unlock()
		if _, err := f.Conn.Write(p); err != nil {
			return 0, err
		}
		if _, err := f.Conn.Write(held); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	st.mu.Unlock()
	return f.Conn.Write(p)
}

// WrapFaultPair applies spec to an established link: a's writes carry
// the A→B direction, b's writes the B→A direction. Each faulted
// direction gets independent state, so DirBoth faults both directions
// at the same per-direction offset.
func WrapFaultPair(a, b net.Conn, spec FaultSpec) (net.Conn, net.Conn) {
	fa := &faultConn{Conn: a, closedCh: make(chan struct{})}
	fb := &faultConn{Conn: b, closedCh: make(chan struct{})}
	if spec.Kind != FaultNone {
		if spec.Dir == DirBoth || spec.Dir == DirAToB {
			fa.st = &faultState{spec: spec}
		}
		if spec.Dir == DirBoth || spec.Dir == DirBToA {
			fb.st = &faultState{spec: spec}
		}
	}
	return fa, fb
}

// FaultPipe is Pipe plus WrapFaultPair.
func FaultPipe(spec FaultSpec) (net.Conn, net.Conn) {
	a, b := Pipe()
	return WrapFaultPair(a, b, spec)
}
