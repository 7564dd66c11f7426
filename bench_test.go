package mbtls_test

// Benchmarks regenerating the paper's evaluation as testing.B targets.
// Mapping to the paper (§5):
//
//	BenchmarkHandshake/*            → Figure 5 (per-configuration handshake cost)
//	BenchmarkDataPlane/*            → Figure 7 (middlebox record processing,
//	                                  forward vs re-encrypt, host vs enclave)
//	BenchmarkTable2Site             → Table 2 (one filtered-network handshake)
//	BenchmarkLegacySiteFetch        → §5.1 (one legacy-site fetch via the proxy)
//	BenchmarkAblation*              → DESIGN.md §5 design-choice ablations
//
// The full paper-shaped reports (means, CIs, all rows/series) come from
// cmd/mbtls-bench; these benches give allocation and per-op costs.

import (
	"fmt"
	"net"
	"testing"
	"time"

	mbtls "repro"
	"repro/internal/certs"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/netsim"
	"repro/internal/splittls"
	"repro/internal/tls12"
)

// newPKI mints the shared, read-only chain fixture.
func newPKI(b *testing.B) *chain.PKI {
	b.Helper()
	pki, err := chain.NewPKI()
	if err != nil {
		b.Fatal(err)
	}
	return pki
}

// setupSession performs one full mbTLS session establishment through
// one default middlebox per mode in modes, over link's hops (in-memory
// pipes when nil), and tears it down.
func setupSession(b *testing.B, pki *chain.PKI, link chain.Link, modes ...mbtls.Mode) {
	b.Helper()
	cfgs := make([]mbtls.MiddleboxConfig, len(modes))
	for i, mode := range modes {
		cfgs[i].Mode = mode
	}
	ch, err := pki.Chain(link, cfgs...)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	client, server, err := chain.Establish(ch.Client, ch.Server, pki.ClientConfig(), pki.ServerConfig())
	if err != nil {
		b.Fatal(err)
	}
	client.Close()
	server.Close()
}

// BenchmarkHandshake reproduces Figure 5's configurations as per-op
// costs of complete session establishment.
func BenchmarkHandshake(b *testing.B) {
	pki := newPKI(b)
	splitCA, err := certs.NewCA("bench split root")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("TLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp, sp := netsim.Pipe()
			server := tls12.NewServerConn(sp, &tls12.Config{Certificate: pki.Origin})
			errc := make(chan error, 1)
			go func() { errc <- server.Handshake() }()
			client := tls12.NewClientConn(cp, pki.ClientConfig().TLS)
			if err := client.Handshake(); err != nil {
				b.Fatal(err)
			}
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
			client.Close()
			server.Close()
		}
	})
	b.Run("SplitTLS_1mbox", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c0a, c0b := netsim.Pipe()
			c1a, c1b := netsim.Pipe()
			ic := &splittls.Interceptor{CA: splitCA, Upstream: &tls12.Config{RootCAs: pki.CA.Pool()}, VerifyUpstream: true}
			go ic.Handle(c0b, c1a) //nolint:errcheck
			server := tls12.NewServerConn(c1b, &tls12.Config{Certificate: pki.Origin})
			errc := make(chan error, 1)
			go func() { errc <- server.Handshake() }()
			client := tls12.NewClientConn(c0a, &tls12.Config{RootCAs: splitCA.Pool(), ServerName: chain.OriginName})
			if err := client.Handshake(); err != nil {
				b.Fatal(err)
			}
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
			client.Close()
			server.Close()
		}
	})
	for _, cfg := range []struct {
		name  string
		modes []mbtls.Mode
	}{
		{"MbTLS_0mbox", nil},
		{"MbTLS_1clientMbox", []mbtls.Mode{mbtls.ClientSide}},
		{"MbTLS_1serverMbox", []mbtls.Mode{mbtls.ServerSide}},
		{"MbTLS_2serverMboxes", []mbtls.Mode{mbtls.ServerSide, mbtls.ServerSide}},
		{"MbTLS_3serverMboxes", []mbtls.Mode{mbtls.ServerSide, mbtls.ServerSide, mbtls.ServerSide}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setupSession(b, pki, nil, cfg.modes...)
			}
		})
	}
}

// benchBatch is the records-per-op batch size of the data-plane
// benchmarks, matching the relay's batched fast path.
const benchBatch = 16

// runDataPlaneBatch drives one benchmark configuration: each op seals a
// batch (untimed), runs it through the middlebox stage (timed), and
// drains it at the sink (untimed). The timed region must be
// allocation-free; b.ReportAllocs makes the claim checkable.
func runDataPlaneBatch(b *testing.B, h *core.BenchHarness, size int) {
	b.Helper()
	plaintext := core.RandomPlaintext(size)
	srcBuf := make([]byte, 0, benchBatch*(size+64))
	dst := make([]byte, 0, cap(srcBuf))
	recs := make([]tls12.RawRecord, 0, benchBatch)

	oneOp := func() {
		var err error
		var n int
		dst, n, err = h.ProcessBatch(recs, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if n != benchBatch {
			b.Fatalf("processed %d of %d records", n, benchBatch)
		}
	}
	seal := func() {
		srcBuf = srcBuf[:0]
		recs = recs[:0]
		for i := 0; i < benchBatch; i++ {
			var rec tls12.RawRecord
			srcBuf, rec = h.SealInto(srcBuf, plaintext)
			recs = append(recs, rec)
		}
	}
	drain := func() {
		if _, err := h.DrainWire(dst); err != nil {
			b.Fatal(err)
		}
	}

	// Warm up buffer growth and pools before measuring.
	seal()
	oneOp()
	drain()

	b.SetBytes(int64(size * benchBatch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seal()
		b.StartTimer()
		oneOp()
		b.StopTimer()
		drain()
		b.StartTimer()
	}
}

// BenchmarkDataPlane reproduces Figure 7's cells as per-batch costs of
// the middlebox stage alone. The acceptance bar for the zero-allocation
// pipeline is 0 allocs/op on every Forward and Reencrypt cell.
func BenchmarkDataPlane(b *testing.B) {
	authority, err := enclave.NewAuthority()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	platform.SetBoundaryCost(time.Microsecond)

	for _, reencrypt := range []bool{false, true} {
		for _, sgx := range []bool{false, true} {
			mode := "Forward"
			if reencrypt {
				mode = "Reencrypt"
			}
			env := "Host"
			if sgx {
				env = "Enclave"
			}
			for _, size := range []int{512, 1024, 2048, 4096, 8192, 12288, 16384} {
				b.Run(fmt.Sprintf("%s/%s/%d", mode, env, size), func(b *testing.B) {
					var encl *enclave.Enclave
					if sgx {
						encl = platform.CreateEnclave(enclave.CodeImage{Name: "bench", Version: "1"})
					}
					h, err := core.NewBenchHarness(encl, tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, reencrypt)
					if err != nil {
						b.Fatal(err)
					}
					runDataPlaneBatch(b, h, size)
				})
			}
		}
	}
}

// BenchmarkTable2Site measures one handshake through a typical
// filtered client network (Table 2's unit of work).
func BenchmarkTable2Site(b *testing.B) {
	pki := newPKI(b)
	for i := 0; i < b.N; i++ {
		setupSession(b, pki, chain.ClientHop(func() (net.Conn, net.Conn) {
			return netsim.FilteredLink(netsim.SiteFilters(netsim.Enterprise, i)...)
		}), mbtls.ClientSide)
	}
}

// BenchmarkAblationInterleavedHandshake compares mbTLS's interleaved
// session setup against the naïve Figure 1 approach (establish the
// end-to-end TLS session first, then a separate sequential TLS session
// to pass keys to the middlebox) over a realistic-latency path —
// quantifying the round trips the optimistic ClientHello reuse saves
// (DESIGN.md ablation 3).
func BenchmarkAblationInterleavedHandshake(b *testing.B) {
	pki := newPKI(b)
	mbCert, err := pki.MiddleboxCert(chain.MiddleboxName)
	if err != nil {
		b.Fatal(err)
	}
	const latency = 5 * time.Millisecond // one-way per hop

	b.Run("mbTLS_interleaved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			setupSession(b, pki, func(int) (net.Conn, net.Conn, error) {
				a, z := netsim.NewLink(netsim.LinkConfig{Latency: latency})
				return a, z, nil
			}, mbtls.ClientSide)
		}
	})
	b.Run("naive_sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// End-to-end TLS over the full path (2 hops of latency)...
			c0a, c0b := netsim.NewLink(netsim.LinkConfig{Latency: 2 * latency})
			server := tls12.NewServerConn(c0b, &tls12.Config{Certificate: pki.Origin})
			errc := make(chan error, 1)
			go func() { errc <- server.Handshake() }()
			client := tls12.NewClientConn(c0a, pki.ClientConfig().TLS)
			if err := client.Handshake(); err != nil {
				b.Fatal(err)
			}
			<-errc
			// ...then a separate, sequential TLS session to the
			// middlebox (1 hop of latency) to hand it the keys.
			m0a, m0b := netsim.NewLink(netsim.LinkConfig{Latency: latency})
			mbServer := tls12.NewServerConn(m0b, &tls12.Config{Certificate: mbCert})
			go func() { errc <- mbServer.Handshake() }()
			mbClient := tls12.NewClientConn(m0a, &tls12.Config{RootCAs: pki.CA.Pool()})
			if err := mbClient.Handshake(); err != nil {
				b.Fatal(err)
			}
			<-errc
			if sk, err := client.ExportSessionKeys(); err != nil || sk == nil {
				b.Fatal(err)
			} else if _, err := mbClient.Write(sk.ClientWriteKey); err != nil {
				b.Fatal(err)
			}
			client.Close()
			server.Close()
			mbClient.Close()
			mbServer.Close()
		}
	})
}

// BenchmarkAblationBoundaryCost sweeps the simulated SGX transition
// cost to locate where Figure 7's "no noticeable impact" claim would
// break (DESIGN.md ablation 4).
func BenchmarkAblationBoundaryCost(b *testing.B) {
	authority, err := enclave.NewAuthority()
	if err != nil {
		b.Fatal(err)
	}
	for _, cost := range []time.Duration{0, time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond} {
		b.Run(cost.String(), func(b *testing.B) {
			platform, err := authority.NewPlatform()
			if err != nil {
				b.Fatal(err)
			}
			platform.SetBoundaryCost(cost)
			encl := platform.CreateEnclave(enclave.CodeImage{Name: "bench", Version: "1"})
			h, err := core.NewBenchHarness(encl, tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, true)
			if err != nil {
				b.Fatal(err)
			}
			runDataPlaneBatch(b, h, 4096)
		})
	}
}

// BenchmarkAblationPerHopKeying measures the extra setup cost of
// unique per-hop keys (generation + distribution) relative to reusing
// the session key on every hop (DESIGN.md ablation 2).
func BenchmarkAblationPerHopKeying(b *testing.B) {
	for _, hops := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for h := 0; h < hops; h++ {
					if _, err := core.GenerateHopKeys(tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
