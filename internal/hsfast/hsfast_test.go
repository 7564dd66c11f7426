package hsfast

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestKeySharePoolHit pins that a pooled share round-trips into a
// working ECDH key: the wrapped private key agrees with the returned
// public bytes, and the pool's copy of the scalar is wiped.
func TestKeySharePoolHit(t *testing.T) {
	p := NewKeySharePool(4, 1)
	defer p.Close()

	// Wait for the workers to precompute at least one share.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.shares) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pool never filled")
		}
		time.Sleep(time.Millisecond)
	}

	priv, pub, err := p.X25519KeyShare()
	if err != nil {
		t.Fatal(err)
	}
	if got := priv.PublicKey().Bytes(); string(got) != string(pub) {
		t.Fatalf("returned public bytes do not match the private key")
	}
	// Cross-check the pair with a fresh peer key.
	peer, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := priv.ECDH(peer.PublicKey()); err != nil {
		t.Fatalf("ECDH with pooled key: %v", err)
	}
	s := p.Stats()
	if s.Hits != 1 {
		t.Fatalf("hits = %d, want 1", s.Hits)
	}
}

// TestKeySharePoolMiss pins that an empty pool generates inline and
// counts a miss instead of blocking.
func TestKeySharePoolMiss(t *testing.T) {
	p := NewKeySharePool(1, 1)
	p.Close() // stop the filler and drain: every request is now a miss

	priv, pub, err := p.X25519KeyShare()
	if err != nil {
		t.Fatal(err)
	}
	if priv == nil || len(pub) != 32 {
		t.Fatalf("inline generation returned priv=%v len(pub)=%d", priv, len(pub))
	}
	if s := p.Stats(); s.Misses == 0 {
		t.Fatalf("stats = %+v, want a miss", s)
	}
}

// TestKeySharePoolCloseWipes pins that Close wipes unused shares and
// counts them.
func TestKeySharePoolCloseWipes(t *testing.T) {
	p := NewKeySharePool(8, 2)
	deadline := time.Now().Add(5 * time.Second)
	for len(p.shares) < 8 {
		if time.Now().After(deadline) {
			t.Fatal("pool never filled")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if s := p.Stats(); s.Wiped != 8 {
		t.Fatalf("wiped = %d, want 8", s.Wiped)
	}
}

// TestSTEKGraceWindow pins the rotation contract: tickets sealed under
// generation N open during generation N+1 (grace) and are refused at
// generation N+2.
func TestSTEKGraceWindow(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	s, err := NewSTEK(time.Minute, clk)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.SealKey()

	clk.Advance(61 * time.Second) // one interval: gen0 in grace
	keys := s.OpenKeys()
	if len(keys) != 2 || keys[1] != gen0 {
		t.Fatalf("after one rotation OpenKeys = %d keys, want [gen1 gen0]", len(keys))
	}
	if s.SealKey() == gen0 {
		t.Fatal("seal key did not rotate")
	}

	clk.Advance(61 * time.Second) // second interval: gen0 retired
	for _, k := range s.OpenKeys() {
		if k == gen0 {
			t.Fatal("gen0 still accepted after grace window")
		}
	}
}

// TestSTEKBigGap pins that a gap of many intervals retires both
// generations at once instead of looping per missed interval.
func TestSTEKBigGap(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	s, err := NewSTEK(time.Minute, clk)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.SealKey()
	clk.Advance(1000 * time.Minute)
	keys := s.OpenKeys()
	if len(keys) != 1 {
		t.Fatalf("after big gap OpenKeys = %d keys, want 1", len(keys))
	}
	if keys[0] == gen0 {
		t.Fatal("stale key survived a big gap")
	}
	if got := s.Rotations(); got != 1 {
		t.Fatalf("rotations = %d, want 1 (bulk retire)", got)
	}
}

// TestSTEKManualRotateAndWipe covers a rotation on the manual clock,
// then the wipe: a wiped STEK refuses to seal or open, in both forms,
// and stays wiped however much time passes.
func TestSTEKManualRotateAndWipe(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	s, err := NewSTEK(time.Hour, clk)
	if err != nil {
		t.Fatal(err)
	}
	k0 := s.SealKey()
	clk.Advance(time.Hour)
	keys := s.OpenKeys()
	if len(keys) != 2 || keys[1] != k0 {
		t.Fatalf("after one interval OpenKeys = %v keys, want previous retained", len(keys))
	}
	if n := len(s.OpenAEADs()); n != 2 || s.SealAEAD() != s.OpenAEADs()[0] {
		t.Fatalf("after one interval %d open AEADs, want 2 with the seal AEAD first", n)
	}
	s.Wipe()
	for _, at := range []string{"at the wipe", "three intervals on"} {
		if s.SealKey() != ([32]byte{}) || len(s.OpenKeys()) != 0 {
			t.Fatalf("%s: the wiped STEK serves keys", at)
		}
		if s.SealAEAD() != nil || len(s.OpenAEADs()) != 0 {
			t.Fatalf("%s: the wiped STEK serves AEADs", at)
		}
		clk.Advance(3 * time.Hour)
	}
}

// TestVerifyCacheSingleFlight pins that N concurrent lookups of one
// key run the verifier exactly once and all share its verdict.
func TestVerifyCacheSingleFlight(t *testing.T) {
	c := NewVerifyCache(16, 0, nil)
	var runs atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	key := [32]byte{1}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(key, func() error {
				runs.Add(1)
				<-gate
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	// Let the goroutines pile up on the in-flight entry, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("verifier ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits+s.Waits != 7 {
		t.Fatalf("stats = %+v, want 1 miss and 7 shared verdicts", s)
	}
}

// TestVerifyCacheFailureNotCached pins that failures are shared with
// in-flight waiters but never cached for later lookups.
func TestVerifyCacheFailureNotCached(t *testing.T) {
	c := NewVerifyCache(16, 0, nil)
	key := [32]byte{2}
	boom := errors.New("boom")
	if _, err := c.Do(key, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	ran := false
	if _, err := c.Do(key, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("failure was cached")
	}
	if cached, _ := c.Do(key, func() error { t.Fatal("success not cached"); return nil }); !cached {
		t.Fatal("success verdict not served from cache")
	}
}

// TestVerifyCacheLRUEviction pins capacity pressure: the least
// recently used verdict goes first.
func TestVerifyCacheLRUEviction(t *testing.T) {
	c := NewVerifyCache(2, 0, nil)
	ok := func() error { return nil }
	a, b, d := [32]byte{10}, [32]byte{11}, [32]byte{12}
	c.Do(a, ok)
	c.Do(b, ok)
	c.Do(a, ok) // refresh a; b is now LRU
	c.Do(d, ok) // evicts b
	if cached, _ := c.Do(a, ok); !cached {
		t.Fatal("recently used verdict was evicted")
	}
	if cached, _ := c.Do(b, ok); cached {
		t.Fatal("LRU verdict survived eviction")
	}
	if s := c.Stats(); s.Evicted == 0 {
		t.Fatalf("stats = %+v, want evictions", s)
	}
}
