package main

// splitmix64 is the benchmark's seeded generator. math/rand is off
// limits in this module (mbtls-lint cryptorand), and payload bytes need
// reproducibility, not unpredictability.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// patternLen is the period of the payload stream. It is prime, so no
// chunk size divides it and consecutive chunks of any workload differ:
// a relay that reordered, dropped or repeated a chunk would fail the
// sink's comparison, not only one that corrupted bytes.
const patternLen = 65537

// pattern is the seeded byte stream every workload sends. The first
// patternLen bytes repeat; the tail lets at(off, n) return any window
// of up to maxChunk bytes without wrapping.
type pattern []byte

const maxChunk = 16 << 10

func newPattern(seed uint64) pattern {
	rng := splitmix64(seed)
	p := make(pattern, patternLen+maxChunk)
	for i := 0; i < patternLen; i += 8 {
		v := rng.next()
		for j := 0; j < 8 && i+j < patternLen; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	copy(p[patternLen:], p[:maxChunk])
	return p
}

// at returns the n bytes (n <= maxChunk) at stream offset off.
func (p pattern) at(off int64, n int) []byte {
	i := int(off % patternLen)
	return p[i : i+n]
}
