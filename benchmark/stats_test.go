package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{
		{0, 10}, {10, 10}, {10.1, 20}, {50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100},
	} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("percentile(1..10 ×10, %g) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want it", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: p99 needs 1000 samples (rank 990, ten beyond), not 999.
func TestSupportedTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := supportedTail(tc.n); p != 50 && beyond(tc.n, p) < minBeyond {
			t.Errorf("supportedTail(%d) = %g has only %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
}

func TestSummarizeIsMedianOfValues(t *testing.T) {
	values := []float64{5, 1, 4, 2, 100}
	got := summarize(values)
	want := summary{Value: 4, Min: 1, Max: 100, Windows: values}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summarize(%v) = %+v, want %+v", values, got, want)
	}
	if !reflect.DeepEqual(values, []float64{5, 1, 4, 2, 100}) {
		t.Errorf("summarize reordered its input: %v", values)
	}
	if got := summarize([]float64{1, 2, 3, 10}).Value; got != 2.5 {
		t.Errorf("median of an even count = %g, want the middle two's mean 2.5", got)
	}
	if got := summarize(nil); got.Value != 0 || got.Windows != nil {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

// The run's value is the percentile of all slices together, not of the
// windows' percentiles: one slow window costs its share of the slices.
func TestSummarizeSlicesPoolsTheRun(t *testing.T) {
	fast := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	slow := []float64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}
	got := summarizeSlices([][]float64{fast, slow}, 90)
	// 20 slices, nearest rank 18: the eighth of the fast window.
	want := summary{Value: 107, Min: 58, Max: 108, Windows: []float64{108, 58}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summarizeSlices(fast, slow, 90) = %+v, want %+v", got, want)
	}
	if got := summarizeSlices([][]float64{fast, slow}, 10).Value; got != 51 {
		t.Errorf("10th percentile of the pooled slices = %g, want 51", got)
	}
	if got := summarizeSlices([][]float64{{3, 1, 2}}, 90); got.Value != 3 || got.Min != 3 || got.Max != 3 {
		t.Errorf("one window's slices in any order = %+v, want 3 throughout", got)
	}
	if got := summarizeSlices(nil, 90); got.Value != 0 || got.Windows != nil {
		t.Errorf("summarizeSlices(nil) = %+v, want zero", got)
	}
	if got := summarizeSlices([][]float64{nil, nil}, 90); got.Value != 0 {
		t.Errorf("windows without a slice = %+v, want zero", got)
	}
}

func TestSlicesFromMarks(t *testing.T) {
	g := &generator{lat: []int64{10, 30, 20, 9, 7}}
	marks := []mark{
		{},
		{at: 100e6, ops: 50, samples: 3, cpu: 150 * time.Millisecond},
		{at: 300e6, ops: 50, samples: 3, cpu: 160 * time.Millisecond}, // nothing completed: no latency, no cost per op
		{at: 400e6, ops: 90, samples: 5, cpu: 300 * time.Millisecond},
	}
	want := []sliceResult{
		{Seconds: 0.1, Ops: 50, CPUus: 150e3, P50ns: 20},
		{Seconds: 0.2, Ops: 0, CPUus: 10e3, P50ns: 0},
		{Seconds: 0.1, Ops: 40, CPUus: 140e3, P50ns: 7},
	}
	if got := g.slices(marks); !reflect.DeepEqual(got, want) {
		t.Errorf("slices = %+v, want %+v", got, want)
	}
}

func TestPatternIsSeededAndAperiodicInChunks(t *testing.T) {
	a, b, c := newPattern(7), newPattern(7), newPattern(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different patterns")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same pattern")
	}
	// at() must agree with the infinite repetition of the first
	// patternLen bytes, across the wrap.
	for _, off := range []int64{0, 1, patternLen - 1, patternLen, patternLen + 5, 3*patternLen - 100} {
		got := a.at(off, maxChunk)
		for i, v := range got {
			if want := a[(off+int64(i))%patternLen]; v != want {
				t.Fatalf("at(%d)[%d] = %d, want %d", off, i, v, want)
			}
		}
	}
	if reflect.DeepEqual(a.at(0, 512), a.at(512, 512)) {
		t.Error("consecutive chunks are equal: a reordering relay would pass the sink's check")
	}
}
