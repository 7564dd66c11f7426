package hsfast

import (
	"crypto/ecdh"
	"crypto/rand"
	"io"
	"sync"
	"sync/atomic"
)

// KeyShare is one precomputed X25519 keypair, held ready-to-use: the
// expensive part of generating a share is deriving the public point (a
// base-point scalar multiplication), and the pool does that once on an
// idle worker. The share stores the *ecdh.PrivateKey itself — earlier
// revisions stored the raw scalar and re-derived the key at hand-out,
// which repeated the base-point multiplication on every pool hit and
// made a hit as expensive as inline generation.
type KeyShare struct {
	priv *ecdh.PrivateKey
	pub  []byte
}

// Wipe drops the share's key references. The scalar lives inside the
// stdlib ecdh.PrivateKey (which keeps its own copy and offers no
// zeroization hook), so an unused share's material is released to the
// GC rather than overwritten — the same lifetime an inline-generated
// handshake key has.
func (s *KeyShare) Wipe() {
	if s == nil {
		return
	}
	s.priv = nil
	s.pub = nil
}

// KeySharePoolStats is a point-in-time snapshot of a pool's counters.
type KeySharePoolStats struct {
	// Capacity is the configured pool size.
	Capacity int
	// Workers is how many refill workers keep the pool full.
	Workers int
	// Ready is the number of precomputed shares currently waiting.
	Ready int
	// Hits counts handshakes served from a precomputed share.
	Hits int64
	// Misses counts handshakes that generated inline (pool empty).
	Misses int64
	// Wiped counts unused shares destroyed at Close.
	Wiped int64
}

// HitRate is Hits/(Hits+Misses), or 0 before any request.
func (s KeySharePoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// KeySharePool pre-generates X25519 keyshares on background workers.
// It implements the tls12.KeyShareSource interface; one pool is shared
// by every handshake a host runs, so its capacity bounds precompute
// memory the way RecordBufPool bounds relay memory.
type KeySharePool struct {
	shares  chan *KeyShare
	done    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	rand    io.Reader
	workers int

	hits   atomic.Int64
	misses atomic.Int64
	wiped  atomic.Int64
}

// sharesPerWorker sizes NewKeySharePoolForShards: enough stock per
// refill worker to absorb an admission burst while the worker catches
// up.
const sharesPerWorker = 64

// NewKeySharePool starts a pool holding up to size shares, refilled by
// workers background goroutines. size and workers default to 64 and 1
// when non-positive. Close releases the workers and wipes unused
// shares.
func NewKeySharePool(size, workers int) *KeySharePool {
	if size <= 0 {
		size = 64
	}
	if workers <= 0 {
		workers = 1
	}
	p := &KeySharePool{
		shares:  make(chan *KeyShare, size),
		done:    make(chan struct{}),
		rand:    rand.Reader,
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.fill()
	}
	return p
}

// NewKeySharePoolForShards sizes a pool for n refill workers
// (callers pass GOMAXPROCS): one worker and sharesPerWorker of
// capacity each, so refill throughput and burst stock scale with the
// cores instead of a fixed single-worker default (which is what let
// the hit rate sag at high concurrency). The name renames to say
// "n workers" when benchmark/ reopens (the frozen module calls it).
func NewKeySharePoolForShards(n int) *KeySharePool {
	if n < 1 {
		n = 1
	}
	return NewKeySharePool(sharesPerWorker*n, n)
}

// fill generates shares until the pool closes, parking on the channel
// send whenever the pool is full.
func (p *KeySharePool) fill() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		default:
		}
		priv, err := ecdh.X25519().GenerateKey(p.rand)
		if err != nil {
			// Entropy failure: stop precomputing; handshakes fall
			// back to inline generation and surface the error there.
			return
		}
		share := &KeyShare{priv: priv, pub: priv.PublicKey().Bytes()}
		select {
		case p.shares <- share:
		case <-p.done:
			share.Wipe()
			return
		}
	}
}

// X25519KeyShare returns an ephemeral X25519 key for one handshake:
// a precomputed share when available (hit), otherwise generated inline
// (miss). A hit hands over the ready private key — no scalar
// re-derivation on the handshake path.
func (p *KeySharePool) X25519KeyShare() (*ecdh.PrivateKey, []byte, error) {
	select {
	case share := <-p.shares:
		priv, pub := share.priv, share.pub
		share.Wipe()
		p.hits.Add(1)
		return priv, pub, nil
	default:
	}
	p.misses.Add(1)
	priv, err := ecdh.X25519().GenerateKey(p.rand)
	if err != nil {
		return nil, nil, err
	}
	return priv, priv.PublicKey().Bytes(), nil
}

// Stats snapshots the pool's counters.
func (p *KeySharePool) Stats() KeySharePoolStats {
	return KeySharePoolStats{
		Capacity: cap(p.shares),
		Workers:  p.workers,
		Ready:    len(p.shares),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Wiped:    p.wiped.Load(),
	}
}

// Close stops the workers and wipes every unused share. Safe to call
// more than once; the pool still serves (inline) after Close.
func (p *KeySharePool) Close() {
	p.once.Do(func() {
		close(p.done)
		p.wg.Wait()
		for {
			select {
			case share := <-p.shares:
				share.Wipe()
				p.wiped.Add(1)
			default:
				return
			}
		}
	})
}
