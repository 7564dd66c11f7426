package hsfast

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"io"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/secmem"
)

// STEK is a rotating session-ticket encryption key with a
// one-generation grace window. It implements tls12.TicketAEADSource:
// tickets are sealed under the current generation and open under the
// current or the immediately previous one, so resumption survives
// exactly one rotation. Tickets sealed two or more generations ago fail
// to open, which the handshake treats as a silent fall back to a full
// handshake — never an error. Each generation's AES-256-GCM is built
// once, when the generation starts, and handed to every handshake that
// seals or opens under it (SealAEAD, OpenAEADs); SealKey and OpenKeys
// hand out the raw keys to sources that wrap a STEK.
//
// Rotation is lazy: every call rotates when the configured interval has
// elapsed, so no background goroutine is needed and the injected clock
// keeps tests deterministic. A wiped STEK serves nothing: no ticket is
// sealed and none opens.
type STEK struct {
	mu       sync.Mutex
	interval time.Duration
	clock    clock.Clock
	rand     io.Reader

	rotatedAt   time.Time
	currentKey  [32]byte
	previousKey [32]byte
	hasPrevious bool
	rotations   int64
	wiped       bool

	// seal is the current generation's AEAD; open lists it and, within
	// the grace window, the previous one's. Both are rebuilt, never
	// modified, when a generation starts, so callers may keep them.
	seal cipher.AEAD
	open []cipher.AEAD
}

// NewSTEK creates a STEK that rotates every interval on clk (nil means
// the wall clock). interval <= 0 disables rotation.
func NewSTEK(interval time.Duration, clk clock.Clock) (*STEK, error) {
	s := &STEK{interval: interval, clock: clock.Or(clk), rand: rand.Reader}
	if _, err := io.ReadFull(s.rand, s.currentKey[:]); err != nil {
		return nil, err
	}
	if err := s.rebuildLocked(); err != nil {
		return nil, err
	}
	s.rotatedAt = s.clock.Now()
	return s, nil
}

// SealKey returns the key new tickets are sealed under, rotating first
// if the interval has elapsed; all zeros once wiped.
func (s *STEK) SealKey() [32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.currentKey
}

// OpenKeys returns the keys a received ticket may have been sealed
// under: the current generation and, within the grace window, the
// previous one; none once wiped.
func (s *STEK) OpenKeys() [][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	if s.wiped {
		return nil
	}
	keys := [][32]byte{s.currentKey}
	if s.hasPrevious {
		keys = append(keys, s.previousKey)
	}
	return keys
}

// SealAEAD returns the current generation's AEAD, rotating first if the
// interval has elapsed; nil once wiped.
func (s *STEK) SealAEAD() cipher.AEAD {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.seal
}

// OpenAEADs returns the AEADs of OpenKeys' generations, current first;
// nil once wiped.
func (s *STEK) OpenAEADs() []cipher.AEAD {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.open
}

// Rotations reports how many rotations have happened.
func (s *STEK) Rotations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotations
}

// advanceLocked applies lazy time-based rotation. One elapsed interval
// keeps the old key in the grace window; two or more retire both
// generations (everything outstanding falls back to a full handshake).
func (s *STEK) advanceLocked() {
	if s.interval <= 0 || s.wiped {
		return
	}
	elapsed := s.clock.Now().Sub(s.rotatedAt)
	if elapsed < s.interval {
		return
	}
	if elapsed >= 2*s.interval {
		var fresh [32]byte
		if _, err := io.ReadFull(s.rand, fresh[:]); err != nil {
			return // entropy failure: keep serving the old key, retry next call
		}
		secmem.Wipe(s.previousKey[:])
		s.hasPrevious = false
		s.currentKey = fresh
		secmem.Wipe(fresh[:])
		s.rotations++
		s.rotatedAt = s.clock.Now()
		s.rebuildLocked() //nolint:errcheck // a 32-byte key always makes an AES-256-GCM
		return
	}
	if err := s.rotateLocked(); err == nil {
		s.rotatedAt = s.rotatedAt.Add(s.interval)
	}
}

func (s *STEK) rotateLocked() error {
	var fresh [32]byte
	if _, err := io.ReadFull(s.rand, fresh[:]); err != nil {
		return err
	}
	s.previousKey = s.currentKey
	s.hasPrevious = true
	s.currentKey = fresh
	secmem.Wipe(fresh[:])
	s.rotations++
	return s.rebuildLocked()
}

// rebuildLocked builds the AEADs of the generations the keys hold.
func (s *STEK) rebuildLocked() error {
	seal, err := newTicketAEAD(&s.currentKey)
	if err != nil {
		return err
	}
	open := []cipher.AEAD{seal}
	if s.hasPrevious {
		prev, err := newTicketAEAD(&s.previousKey)
		if err != nil {
			return err
		}
		open = append(open, prev)
	}
	s.seal, s.open = seal, open
	return nil
}

func newTicketAEAD(key *[32]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Wipe zeroizes both key generations and drops their AEADs; the STEK
// then seals and opens nothing, and stops rotating. A host wipes its
// STEK at shutdown; outstanding tickets become unredeemable, which is
// the point.
func (s *STEK) Wipe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	secmem.Wipe(s.currentKey[:])
	secmem.Wipe(s.previousKey[:])
	s.hasPrevious = false
	s.wiped = true
	s.seal, s.open = nil, nil
}
