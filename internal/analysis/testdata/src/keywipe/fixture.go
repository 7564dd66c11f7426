// Package fixture exercises the keywipe analyzer: complete Wipe
// methods, a missing method, an incomplete method, nested key-bearing
// structs, and a suppressed type.
package fixture

// wipe zeroizes b (the fixture's stand-in for secmem.Wipe).
func wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// WipedKeys declares a complete Wipe: no finding.
type WipedKeys struct {
	SessionKey []byte
	Label      string
}

func (k *WipedKeys) Wipe() {
	wipe(k.SessionKey)
}

type NakedKeys struct { // want "declares no Wipe method"
	MasterSecret []byte
}

type PartialKeys struct {
	ReadKey  []byte
	WriteKey []byte
}

func (p *PartialKeys) Wipe() { // want "does not clear secret field WriteKey"
	wipe(p.ReadKey)
}

// CachedSchedule keeps the expanded key block beside the master secret
// it was derived from (the tls12.Conn shape); the block is key material
// in its own right and Wipe must clear both: no finding.
type CachedSchedule struct {
	masterSecret []byte
	keyBlock     []byte
}

func (c *CachedSchedule) Wipe() {
	wipe(c.masterSecret)
	wipe(c.keyBlock)
}

// StaleSchedule wipes the master secret and forgets the block cached
// from it.
type StaleSchedule struct {
	masterSecret []byte
	keyBlock     []byte
}

func (c *StaleSchedule) Wipe() { // want "does not clear secret field keyBlock"
	wipe(c.masterSecret)
}

// Inner/Outer: a value field of a secret-bearing struct counts as a
// secret field and is cleared by a nested Wipe call.
type Inner struct {
	HopKey []byte
}

func (i *Inner) Wipe() {
	wipe(i.HopKey)
}

type Outer struct {
	Inner Inner
	Name  string
}

func (o *Outer) Wipe() {
	o.Inner.Wipe()
}

// MappedKeys clears its map with the range idiom.
type MappedKeys struct {
	SecretsByName map[string][]byte
}

func (m *MappedKeys) Wipe() {
	for _, s := range m.SecretsByName {
		wipe(s)
	}
}

// ArrayKeys holds key material in fixed-size arrays (the STEK shape)
// and clears them through the field[:] slicing idiom: no finding.
type ArrayKeys struct {
	CurrentKey  [32]byte
	PreviousKey [32]byte
	Generation  int
}

func (a *ArrayKeys) Wipe() {
	wipe(a.CurrentKey[:])
	wipe(a.PreviousKey[:])
}

type NakedArrayKeys struct { // want "declares no Wipe method"
	TicketKey [32]byte
}

type PartialArrayKeys struct {
	SealKey [32]byte
	OpenKey [32]byte
}

func (p *PartialArrayKeys) Wipe() { // want "does not clear secret field OpenKey"
	wipe(p.SealKey[:])
}

// HashIndex names a lookup digest "hash", not "key": arrays of public
// material stay out of scope by naming convention.
type HashIndex struct {
	ChainHash [32]byte
}

// SigningPair holds the private half of a signing keypair under the
// "priv" naming convention (the delegation-key shape): the private
// half is key material, the public half is exempt.
type SigningPair struct { // want "declares no Wipe method"
	pub  []byte
	priv []byte
}

// WipedSigningPair is its complete counterpart: no finding.
type WipedSigningPair struct {
	Pub  []byte
	priv []byte
}

func (k *WipedSigningPair) Wipe() {
	wipe(k.priv)
}

//lint:ignore keywipe fixture demonstrates an accepted, documented exception
type WaivedKeys struct {
	PrivateKey []byte
}
