package hsfast

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/clock"
)

// VerifyCacheStats is a point-in-time snapshot of a cache's counters.
type VerifyCacheStats struct {
	// Entries is the current number of cached verdicts (including
	// in-flight verifications).
	Entries int
	// Hits counts lookups answered from a cached verdict.
	Hits int64
	// Misses counts lookups that ran the verifier.
	Misses int64
	// Waits counts lookups that joined an in-flight verification of
	// the same key (single-flight dedup).
	Waits int64
	// Expired counts verdicts dropped by TTL.
	Expired int64
	// Evicted counts verdicts dropped by LRU capacity pressure.
	Evicted int64
}

// vcEntry is one cached verdict. done is closed when the verification
// that created the entry finishes; err/at are valid only after that.
type vcEntry struct {
	hash [32]byte // lookup key: a digest of public verification inputs
	done chan struct{}
	err  error
	at   time.Time
	elem *list.Element
}

// VerifyCache memoizes expensive verification verdicts under an LRU
// with TTL expiry and single-flight dedup: concurrent lookups of the
// same key run the verifier once and share its verdict. Only successes
// are cached across calls (a failed verification is shared with the
// lookups that were in flight with it, then forgotten, so transient
// failures are retried). It implements the tls12.ChainCache interface.
//
// The key must bind every input of the verification it stands for —
// for certificate chains, a hash of the DER chain plus the expected
// name; for attestation endorsements, a hash of the authority,
// platform key, and endorsement signature. Time is deliberately not
// part of the key: the TTL bounds how long a verdict may outlive a
// certificate expiring or a measurement being revoked.
type VerifyCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	clock   clock.Clock
	entries map[[32]byte]*vcEntry
	order   *list.List // front = most recently used

	hits    int64
	misses  int64
	waits   int64
	expired int64
	evicted int64
}

// NewVerifyCache creates a cache holding up to max verdicts for at
// most ttl each on clk (nil means the wall clock). max defaults to 1024
// when non-positive; ttl <= 0 means verdicts never expire
// (they leave by LRU eviction only).
func NewVerifyCache(max int, ttl time.Duration, clk clock.Clock) *VerifyCache {
	if max <= 0 {
		max = 1024
	}
	return &VerifyCache{
		max:     max,
		ttl:     ttl,
		clock:   clock.Or(clk),
		entries: make(map[[32]byte]*vcEntry),
		order:   list.New(),
	}
}

// Do returns the cached verdict for key, or runs verify (once across
// concurrent callers) and caches its success. cached reports whether
// the verdict came from the cache (including joining an in-flight
// verification) rather than this caller's own verify run.
func (c *VerifyCache) Do(key [32]byte, verify func() error) (cached bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done:
			// Completed entry: only successes stay in the map, so a
			// non-expired entry is a valid verdict.
			if c.ttl <= 0 || c.clock.Now().Sub(e.at) <= c.ttl {
				c.hits++
				c.order.MoveToFront(e.elem)
				c.mu.Unlock()
				return true, nil
			}
			c.expired++
			c.removeLocked(e)
		default:
			// Same key is being verified right now: join it.
			c.waits++
			c.mu.Unlock()
			<-e.done
			return true, e.err
		}
	}
	c.misses++
	e := &vcEntry{hash: key, done: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.max {
		oldest := c.order.Back().Value.(*vcEntry)
		c.removeLocked(oldest)
		c.evicted++
	}
	c.mu.Unlock()

	err = verify()

	c.mu.Lock()
	e.err = err
	e.at = c.clock.Now()
	if err != nil {
		// Share the failure with in-flight waiters, then forget it.
		if c.entries[key] == e {
			c.removeLocked(e)
		}
	}
	close(e.done)
	c.mu.Unlock()
	return false, err
}

// Stats snapshots the cache's counters.
func (c *VerifyCache) Stats() VerifyCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return VerifyCacheStats{
		Entries: len(c.entries),
		Hits:    c.hits,
		Misses:  c.misses,
		Waits:   c.waits,
		Expired: c.expired,
		Evicted: c.evicted,
	}
}

func (c *VerifyCache) removeLocked(e *vcEntry) {
	delete(c.entries, e.hash)
	c.order.Remove(e.elem)
}
