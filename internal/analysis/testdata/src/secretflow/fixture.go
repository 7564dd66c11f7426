// Package fixture exercises the secretflow analyzer: key material must
// not reach logs, error strings, plaintext connection writes, or
// package-level variables — directly or through module helpers — while
// sealed, hashed, and non-secret values pass.
package fixture

import (
	"crypto/sha256"
	"fmt"
	"log"
	"net"
)

type session struct {
	masterSecret []byte
	// keyBlock is the key block cached from masterSecret: a source in
	// its own right, whole or sliced into keys.
	keyBlock []byte
	peerName string
}

// delegationKey mirrors the proxysig signing keypair: the private half
// is key material, the public half is wire-visible.
type delegationKey struct {
	pub  []byte
	priv []byte
}

var hostVisible []byte

// Seal stands in for an AEAD seal: its output is wire-safe.
func Seal(dst, plaintext []byte) []byte { return append(dst, plaintext...) }

// ExportSessionKeys is a source by name, wherever declared.
func ExportSessionKeys() []byte { return make([]byte, 32) }

func direct(s *session) {
	fmt.Printf("ms=%x\n", s.masterSecret) // want "reaches fmt.Printf"
	log.Println(s.peerName)               // non-secret field: clean
}

func cachedBlock(s *session) error {
	log.Printf("block=%x", s.keyBlock)                     // want "reaches log.Printf"
	return fmt.Errorf("bad write key %x", s.keyBlock[:16]) // want "reaches fmt.Errorf"
}

func indirect(s *session) {
	ms := s.masterSecret
	leak(ms) // want "reaches fixture.leak"
}

func leak(b []byte) {
	log.Printf("%x", b)
}

func wire(s *session, c net.Conn) {
	c.Write(s.masterSecret) // want "reaches plaintext connection write"
}

func sealedWire(s *session, c net.Conn) {
	buf := Seal(nil, s.masterSecret)
	c.Write(buf) // sealed: clean
}

func escape(s *session) {
	hostVisible = s.masterSecret // want "escapes to package-level variable"
}

func fingerprint(s *session) string {
	sum := sha256.Sum256(s.masterSecret)
	return fmt.Sprintf("%x", sum) // digest output is an identifier: clean
}

func describe(s *session) error {
	return fmt.Errorf("bad key %x", s.masterSecret) // want "reaches fmt.Errorf"
}

func exported() {
	keys := ExportSessionKeys()
	log.Printf("%x", keys) // want "reaches log.Printf"
}

// fakeEnclave stands in for enclave.Enclave: Enter's callback is handed
// enclave memory.
type fakeEnclave struct{}

func (fakeEnclave) Enter(f func(mem []byte)) { f(nil) }

func enclaveCallback(e fakeEnclave) {
	e.Enter(func(mem []byte) {
		log.Printf("%x", mem) // want "reaches log.Printf"
	})
}

func enclaveClean(e fakeEnclave) {
	e.Enter(func(mem []byte) {
		sum := sha256.Sum256(mem)
		log.Printf("%x", sum) // digest inside the callback: clean
	})
}

func describeDelegation(k *delegationKey) error {
	return fmt.Errorf("delegation key %x", k.priv) // want "reaches fmt.Errorf"
}

func announceDelegation(k *delegationKey) {
	log.Printf("delegating to %x", k.pub) // public half: clean
}
