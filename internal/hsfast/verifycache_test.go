package hsfast

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/testutil/goleak"
)

// TestVerifyCacheTTLExpiry drives the injectable clock across the TTL
// boundary: a verdict is served right up to the deadline and re-verified
// one tick past it, with the expiry counted.
func TestVerifyCacheTTLExpiry(t *testing.T) {
	goleak.Check(t)
	clk := clock.NewManual(time.Unix(5000, 0))
	c := NewVerifyCache(8, 10*time.Second, clk)
	key := [32]byte{7}
	var runs int
	verify := func() error { runs++; return nil }

	if cached, _ := c.Do(key, verify); cached {
		t.Fatal("empty cache served a verdict")
	}
	clk.Advance(10 * time.Second) // exactly at the deadline: still valid
	if cached, _ := c.Do(key, verify); !cached {
		t.Fatal("verdict expired before its TTL elapsed")
	}
	clk.Advance(time.Nanosecond) // one tick past: expired
	if cached, _ := c.Do(key, verify); cached {
		t.Fatal("verdict served past its TTL")
	}
	if runs != 2 {
		t.Fatalf("verifier ran %d times, want 2 (initial + re-verify)", runs)
	}
	s := c.Stats()
	if s.Expired != 1 || s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 expired, 2 misses, 1 hit", s)
	}
}

// TestVerifyCacheLRUCapacity fills the cache past capacity and checks
// that eviction follows use recency, not insertion order, and that the
// entry count never exceeds max.
func TestVerifyCacheLRUCapacity(t *testing.T) {
	goleak.Check(t)
	const max = 4
	c := NewVerifyCache(max, 0, nil)
	ok := func() error { return nil }
	key := func(i int) [32]byte { return [32]byte{byte(i), byte(i >> 8)} }

	for i := 0; i < max; i++ {
		c.Do(key(i), ok)
	}
	c.Do(key(0), ok) // refresh the oldest; key 1 is now LRU
	for i := max; i < max+3; i++ {
		c.Do(key(i), ok)
		if n := c.Stats().Entries; n > max {
			t.Fatalf("entries = %d, want <= %d", n, max)
		}
	}
	if cached, _ := c.Do(key(0), ok); !cached {
		t.Fatal("refreshed verdict was evicted ahead of colder entries")
	}
	for _, i := range []int{1, 2, 3} {
		if cached, _ := c.Do(key(i), ok); cached {
			t.Fatalf("cold verdict %d survived capacity pressure", i)
		}
	}
	if s := c.Stats(); s.Evicted < 3 {
		t.Fatalf("stats = %+v, want at least 3 evictions", s)
	}
}

// TestVerifyCacheCoalescing64 pins single-flight dedup under real
// contention: 64 goroutines look up the same key while the verifier is
// parked, the verifier runs exactly once, every caller shares its
// verdict, and no goroutine outlives the test (goleak). Run with -race.
func TestVerifyCacheCoalescing64(t *testing.T) {
	goleak.Check(t)
	const callers = 64
	c := NewVerifyCache(16, 0, nil)
	key := [32]byte{42}

	var runs atomic.Int64
	started := make(chan struct{}) // verifier entered
	release := make(chan struct{}) // let the verifier finish
	ready := make(chan struct{})   // all callers launched
	var launched sync.WaitGroup
	launched.Add(callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			launched.Done()
			<-ready
			cached, err := c.Do(key, func() error {
				runs.Add(1)
				close(started)
				<-release
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			_ = cached
		}()
	}
	launched.Wait()
	close(ready)
	<-started // one caller is inside the verifier; let the rest pile up
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("verifier ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if served := s.Hits + s.Waits; served != callers-1 {
		t.Fatalf("hits+waits = %d, want %d", served, callers-1)
	}
}

// TestVerifyCacheConcurrentMixedKeys hammers the cache from 64
// goroutines across overlapping keys with occasional failures and
// evictions — a -race workout for the entry/LRU bookkeeping. The
// only invariants asserted are the ones that survive arbitrary
// interleaving: failures are never served from the cache, and the entry
// count respects capacity.
func TestVerifyCacheConcurrentMixedKeys(t *testing.T) {
	goleak.Check(t)
	const (
		callers = 64
		keys    = 8
		rounds  = 50
	)
	c := NewVerifyCache(keys/2, time.Hour, nil)
	boom := errors.New("boom")

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := [32]byte{byte((g + r) % keys)}
				fail := k[0] == 0 // key 0 always fails verification
				cached, err := c.Do(k, func() error {
					if fail {
						return boom
					}
					return nil
				})
				if fail && cached && err == nil {
					t.Error("failing key served a cached success")
				}
				if !fail && err != nil {
					t.Errorf("Do(%d): %v", k[0], err)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := c.Stats().Entries; n > keys/2 {
		t.Fatalf("entries = %d, want <= %d", n, keys/2)
	}
}
