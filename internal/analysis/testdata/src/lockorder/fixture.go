// Package fixture exercises the lockorder analyzer: consistent
// acquisition order, no state mutex held across blocking operations
// (I/O-serialization mutexes are name-exempt), and no recursive
// acquisition — direct or through a callee.
package fixture

import (
	"net"
	"sync"
)

type registry struct {
	mu  sync.Mutex
	amu sync.Mutex
	bmu sync.Mutex
	wmu sync.Mutex
	ch  chan int
	n   int
}

func (s *registry) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want "held across a channel send"
	s.mu.Unlock()
}

func (s *registry) sendAfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- 1 // lock released first: clean
}

func (s *registry) ioSerialized(c net.Conn, b []byte) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	c.Write(b) // wmu is a write-serialization lock: clean
}

func (s *registry) stateAcrossIO(c net.Conn, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Write(b) // want "held across connection I/O"
}

func (s *registry) orderAB() {
	s.amu.Lock()
	s.bmu.Lock() // want "inconsistent lock order"
	s.bmu.Unlock()
	s.amu.Unlock()
}

func (s *registry) orderBA() {
	s.bmu.Lock()
	s.amu.Lock() // want "inconsistent lock order"
	s.amu.Unlock()
	s.bmu.Unlock()
}

func (s *registry) recursive() {
	s.mu.Lock()
	s.mu.Lock() // want "recursive locking self-deadlocks"
	s.mu.Unlock()
	s.mu.Unlock()
}

func (s *registry) lockedHelper() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *registry) callsHelperUnderLock() {
	s.mu.Lock()
	s.lockedHelper() // want "possible self-deadlock"
	s.mu.Unlock()
}

func (s *registry) blocksInside() {
	<-s.ch
}

func (s *registry) callsBlockingUnderLock() {
	s.mu.Lock()
	s.blocksInside() // want "held across channel receive in"
	s.mu.Unlock()
}

func (s *registry) nonBlockingSend() {
	s.mu.Lock()
	select {
	case s.ch <- 1: // non-blocking with a default: clean
	default:
	}
	s.mu.Unlock()
}

func (s *registry) blockingSelect() {
	s.mu.Lock()
	select { // want "held across a select with no default"
	case s.ch <- 1:
	case <-s.ch:
	}
	s.mu.Unlock()
}

func (s *registry) spawned() {
	s.mu.Lock()
	go func() {
		s.ch <- 1 // another goroutine's stack: clean
	}()
	s.mu.Unlock()
}
