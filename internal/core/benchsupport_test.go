package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/tls12"
)

// TestDataPlaneAllocFree pins the data plane's steady state at zero
// heap allocations per batch: client seal → middlebox stage → server
// drain over caller-owned buffers, forwarding and re-encrypting, with
// and without an enclave (at the 1 µs boundary cost fig7 simulates).
func TestDataPlaneAllocFree(t *testing.T) {
	authority, err := enclave.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	platform.SetBoundaryCost(time.Microsecond)

	const batch, size = 16, 4096
	plaintext := RandomPlaintext(size)
	for _, reencrypt := range []bool{false, true} {
		for _, sgx := range []bool{false, true} {
			t.Run(fmt.Sprintf("reencrypt=%v/enclave=%v", reencrypt, sgx), func(t *testing.T) {
				var encl *enclave.Enclave
				if sgx {
					encl = platform.CreateEnclave(enclave.CodeImage{Name: "alloc-pin", Version: "1.0"})
				}
				h, err := NewBenchHarness(encl, testSuite, reencrypt)
				if err != nil {
					t.Fatal(err)
				}
				src := make([]byte, 0, batch*(tls12.RecordHeaderLen+size+64))
				dst := make([]byte, 0, cap(src))
				recs := make([]tls12.RawRecord, 0, batch)
				// AllocsPerRun's own warm-up call fills buffers and pools.
				allocs := testing.AllocsPerRun(50, func() {
					src, recs = src[:0], recs[:0]
					for i := 0; i < batch; i++ {
						var rec tls12.RawRecord
						src, rec = h.SealInto(src, plaintext)
						recs = append(recs, rec)
					}
					out, _, err := h.ProcessBatch(recs, dst[:0])
					if err != nil {
						t.Fatal(err)
					}
					if n, err := h.DrainWire(out); err != nil || n != batch*size {
						t.Fatalf("sink opened %d bytes (%v), want %d", n, err, batch*size)
					}
				})
				if allocs != 0 {
					t.Fatalf("data plane allocates %.1f per %d-record batch, want 0", allocs, batch)
				}
			})
		}
	}
}
