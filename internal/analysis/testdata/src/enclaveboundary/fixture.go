// Package fixture exercises the enclaveboundary analyzer: callback
// parameter escapes and DumpHostMemory outside the adversary harness.
package fixture

// enclave stands in for enclave.Enclave, its Enter callback handed
// enclave memory; DumpHostMemory for core's Middlebox.DumpHostMemory.
type enclave struct{}

func (enclave) Enter(f func(mem []byte)) {}

func (enclave) DumpHostMemory() map[string][]byte { return nil }

var hostCopy []byte

func leaks(e enclave) {
	e.Enter(func(mem []byte) {
		hostCopy = mem // want "escapes the Enter callback"
	})
	ch := make(chan []byte, 1)
	e.Enter(func(mem []byte) {
		ch <- mem // want "escapes the Enter callback over a host-side channel"
	})
	_ = e.DumpHostMemory() // want "DumpHostMemory"
}

func copiesOut(e enclave) {
	dst := make([]byte, 32)
	e.Enter(func(mem []byte) {
		copy(dst, mem) // want "copied out of the Enter callback"
	})
}

func staysInside(e enclave) {
	e.Enter(func(mem []byte) {
		sum := 0
		for _, b := range mem {
			sum += int(b)
		}
		local := make([]byte, len(mem))
		copy(local, mem) // destination lives inside the callback: fine
		_ = local
		_ = sum
	})
}
