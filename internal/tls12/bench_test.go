package tls12

import (
	"bytes"
	"fmt"
	"testing"
)

// Record-layer micro-benchmarks: the per-record costs underlying the
// Figure 7 plateaus.
func BenchmarkSealOpen(b *testing.B) {
	for _, suite := range []uint16{
		TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
		TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
	} {
		for _, size := range []int{512, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/%d", CipherSuiteName(suite), size), func(b *testing.B) {
				keyLen, _ := suiteKeyLen(suite)
				seal, err := NewCipherState(suite, make([]byte, keyLen), make([]byte, 4), 0)
				if err != nil {
					b.Fatal(err)
				}
				open, err := NewCipherState(suite, make([]byte, keyLen), make([]byte, 4), 0)
				if err != nil {
					b.Fatal(err)
				}
				payload := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sealed := seal.Seal(TypeApplicationData, payload)
					if _, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(sealed)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPRF measures master-secret and key-block derivation.
func BenchmarkPRF(b *testing.B) {
	secret := make([]byte, 48)
	cr := make([]byte, 32)
	sr := make([]byte, 32)
	b.Run("master-secret", func(b *testing.B) {
		pre := make([]byte, 32)
		for i := 0; i < b.N; i++ {
			computeMasterSecret(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, pre, cr, sr)
		}
	})
	b.Run("key-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keyBlock(prfMAC(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, secret), cr, sr, 72)
		}
	})
}

// BenchmarkClientHelloCodec measures hello marshal/parse.
func BenchmarkClientHelloCodec(b *testing.B) {
	h := &ClientHello{
		CipherSuites:     []uint16{TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256},
		ServerName:       "origin.example",
		MiddleboxSupport: &MiddleboxSupport{Middleboxes: []string{"proxy.example:3128"}},
	}
	raw := h.marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseClientHello(raw); err != nil {
			b.Fatal(err)
		}
	}
}
