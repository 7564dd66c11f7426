package tls12

// KeyScheduleForTest exposes the connection's key-schedule inputs and
// its cached key block (aliased, not copied, so a test can watch Wipe
// zeroize it) to the external test package.
func (c *Conn) KeyScheduleForTest() (master, block, clientRandom, serverRandom []byte) {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return append([]byte(nil), c.masterSecret...), c.keyBlock, c.clientRandom[:], c.serverRandom[:]
}
