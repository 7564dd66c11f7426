package main

import (
	"testing"
	"time"
)

// A parent's self time is its duration minus the union of its
// children's intervals, clipped to the parent: overlapping children are
// not subtracted twice, and a child that outlives the parent only
// covers the part inside it.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 150},  // outlives the parent by 50
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild: charged to 2, not 1
		{ID: 6, Parent: 1, Start: 35, End: 38},   // wholly inside the union already
		{ID: 7, Parent: 99, Start: 0, End: 1000}, // parent not kept: nobody's child
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - (50 + 10), // [10,60) and [90,100)
		2: 30 - 5,
		3: 30,
		4: 60,
		5: 5,
		6: 3,
		7: 1000,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// Spans recorded through the tracer with a fake clock come out with
// exact times, only while the window is open, and only for the window's
// first traceOpCap operations; the totals cover every call regardless.
func TestTracerRecordsWindowOnly(t *testing.T) {
	clk := newFakeClock(time.Microsecond)
	tr := newTracer(clk)
	buf := tr.get()

	timed := func(l layer, id, parent, op uint64) {
		start := tr.now()
		clk.Sleep(10 * time.Microsecond)
		tr.record(buf, l, id, parent, op, start, tr.now())
	}
	timed(lCoreDial, tr.id(), 0, 1) // before the window: ignored
	tr.open(100)                    // operations up to 100 began before it
	root := tr.id()
	timed(lCoreDial, tr.id(), root, 101)
	timed(lCoreDial, tr.id(), root, 100)            // began before the window: counted, not kept
	timed(lCoreDial, tr.id(), root, 101+traceOpCap) // beyond the cap: counted, not kept
	timed(lKeyShare, 0, 0, 0)                       // a decorator: counted, never kept
	tr.close()
	timed(lCoreDial, tr.id(), 0, 102) // after the window: ignored

	if got := tr.count(lCoreDial); got != 3 {
		t.Errorf("core.dial calls in the window = %g, want 3", got)
	}
	// Each timed call is one Now() step plus the 10 µs sleep.
	if got := tr.meanNS(lCoreDial); got != 11_000 {
		t.Errorf("core.dial mean = %g ns, want 11000", got)
	}
	if got := tr.count(lKeyShare); got != 1 {
		t.Errorf("keyshare calls = %g, want 1", got)
	}
	kept, dropped := tr.spans()
	if len(kept) != 1 || dropped != 0 || kept[0].Op != 101 || kept[0].Parent != root {
		t.Fatalf("kept spans = %+v (dropped %d), want only op 101 under the root", kept, dropped)
	}
	if d := kept[0].End - kept[0].Start; d != 11_000 {
		t.Errorf("kept span lasts %d ns, want 11000", d)
	}
	f := tr.file("w", 1)
	if len(f.Layers) != 1 || f.Layers[0].Name != "core.dial" || f.Layers[0].SelfNS != 11_000 {
		t.Errorf("trace file layers = %+v, want core.dial with 11000 ns of self time", f.Layers)
	}
}

func TestSpanBufferDropsWhenFull(t *testing.T) {
	clk := newFakeClock(time.Nanosecond)
	tr := newTracer(clk)
	buf := tr.get()
	tr.open(0)
	for i := 0; i < spanBufCap+3; i++ {
		tr.record(buf, lTransportRead, tr.id(), 0, 1, 0, 1)
	}
	kept, dropped := tr.spans()
	if len(kept) != spanBufCap || dropped != 3 {
		t.Errorf("kept %d dropped %d, want %d and 3", len(kept), dropped, spanBufCap)
	}
	if got := tr.count(lTransportRead); got != spanBufCap+3 {
		t.Errorf("total = %g, want every call counted", got)
	}
	tr.put(buf)
	if again := tr.get(); again != buf {
		t.Error("a returned buffer was not lent out again")
	}
}

// probe reports, per quantity, the median over its slices of timed
// nanoseconds per op; untimed work inside the body is not charged.
func TestProbeMedianOfSlices(t *testing.T) {
	clk := newFakeClock(time.Microsecond)
	calls := 0
	v, err := probe(clk, time.Millisecond, 2, func(ns []int64) (int, error) {
		calls++
		clk.Sleep(50 * time.Microsecond) // untimed preparation
		start := clk.Now()
		clk.Sleep(7 * time.Microsecond)
		ns[0] += since(clk, start)
		ns[1] += 4 * 300
		return 4, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Quantity 0: 7 µs slept plus one clock step per 4 ops.
	if v[0] != 2000 || v[1] != 300 {
		t.Errorf("probe = %v ns/op, want [2000 300]", v)
	}
	if calls < probeSlices {
		t.Errorf("body ran %d times, want at least once per slice", calls)
	}
}
