package tls12

// FixedTicketKeys is a TicketKeySource whose one key never rotates, for
// tests that need two configs to share a ticket key.
type FixedTicketKeys [32]byte

func (k FixedTicketKeys) SealKey() [32]byte    { return k }
func (k FixedTicketKeys) OpenKeys() [][32]byte { return [][32]byte{k} }

// KeyScheduleForTest exposes the connection's key-schedule inputs and
// its cached key block (aliased, not copied, so a test can watch Wipe
// zeroize it) to the external test package.
func (c *Conn) KeyScheduleForTest() (master, block, clientRandom, serverRandom []byte) {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return append([]byte(nil), c.masterSecret...), c.keyBlock, c.clientRandom[:], c.serverRandom[:]
}
