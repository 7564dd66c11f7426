// Command mbtls-proxy runs the paper's prototype middlebox: an mbTLS
// HTTP proxy that performs HTTP header insertion (§5, "Prototype
// Implementation"). It relays each accepted connection to -next,
// joining mbTLS sessions via in-band discovery. With -sgx it runs its
// TLS termination and data plane inside a simulated SGX enclave and
// attests during the secondary handshake.
//
// Connections are admitted through a session-host runtime: at most
// -max-sessions relay concurrently (excess connections are refused
// with an overloaded alert), and SIGINT/SIGTERM trigger a graceful
// drain bounded by -drain before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	mbtls "repro"
	"repro/internal/certs"
	"repro/internal/mbapps"
)

func main() {
	listen := flag.String("listen", ":8444", "address to listen on")
	next := flag.String("next", "localhost:8443", "next hop (server or next middlebox)")
	pkiDir := flag.String("pki", "./pki", "PKI directory (provisioned by mbtls-server)")
	mode := flag.String("mode", "client-side", "middlebox mode: client-side or server-side")
	accountability := flag.String("accountability", "attest", "accountability mode: attest or proxysig")
	sgx := flag.Bool("sgx", false, "run inside a simulated SGX enclave")
	header := flag.String("header", "1.1 mbtls-proxy", "Via header value to insert")
	statsEvery := flag.Duration("stats", 0, "log cumulative session/fault counters at this interval (0 disables)")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent sessions (0 = default)")
	reusePort := flag.Bool("reuseport", false, "bind one SO_REUSEPORT listener per core (Linux)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	stekRotate := flag.Duration("stek-rotate", time.Hour, "session-ticket key rotation interval (0 disables resumption)")
	keyshares := flag.Int("keyshares", 0, "precomputed X25519 keyshare pool size (0 = sized from the core count, negative disables)")
	flag.Parse()

	cfg := mbtls.MiddleboxConfig{
		NewProcessor: func() mbtls.Processor {
			return mbapps.NewHeaderInserter("Via", *header)
		},
	}
	switch *mode {
	case "client-side":
		cfg.Mode = mbtls.ClientSide
	case "server-side":
		cfg.Mode = mbtls.ServerSide
	default:
		fmt.Fprintf(os.Stderr, "mbtls-proxy: invalid -mode %q (accepted values: client-side, server-side)\n", *mode)
		os.Exit(2)
	}
	acct, err := mbtls.ParseAccountability(*accountability)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbtls-proxy: invalid -accountability %q (accepted values: attest, proxysig)\n", *accountability)
		os.Exit(2)
	}
	cfg.Accountability = acct

	cert, err := certs.LoadCertPEM(filepath.Join(*pkiDir, "proxy.pem"), filepath.Join(*pkiDir, "proxy.key"))
	if err != nil {
		log.Fatalf("mbtls-proxy: load certificate (run mbtls-server once to provision): %v", err)
	}
	cfg.Certificate = cert

	if *sgx {
		authority, err := mbtls.NewAuthority()
		if err != nil {
			log.Fatalf("mbtls-proxy: %v", err)
		}
		platform, err := authority.NewPlatform()
		if err != nil {
			log.Fatalf("mbtls-proxy: %v", err)
		}
		authority.Wipe() // its one endorsement is made
		encl := platform.CreateEnclave(mbtls.CodeImage{Name: "mbtls-proxy", Version: "1.0"})
		cfg.Enclave = encl
		log.Printf("mbtls-proxy: enclave measurement %s", encl.Measurement())
	}

	// The middlebox and host share one bounded buffer pool, so relay
	// memory is bounded by the pool rather than by session count.
	sessions := *maxSessions
	if sessions <= 0 {
		sessions = 256
	}
	pool := mbtls.NewRecordBufPool(2 * sessions)
	cfg.BufPool = pool

	// Handshake fast path: hop tickets under a rotating STEK, plus a
	// precomputed keyshare pool for the full handshakes that remain.
	var stek *mbtls.STEK
	if *stekRotate > 0 {
		if stek, err = mbtls.NewSTEK(*stekRotate); err != nil {
			log.Fatalf("mbtls-proxy: %v", err)
		}
		cfg.TicketKeys = stek
	}
	// The keyshare pool's refill workers and capacity track the core
	// count by default, so precompute throughput scales with the host
	// instead of sagging at high concurrency.
	var ksPool *mbtls.KeySharePool
	switch {
	case *keyshares == 0:
		ksPool = mbtls.NewKeySharePoolForShards(runtime.GOMAXPROCS(0))
	case *keyshares > 0:
		ksPool = mbtls.NewKeySharePool(*keyshares, 0)
	}
	if ksPool != nil {
		defer ksPool.Close()
		cfg.KeyShares = ksPool
	}

	mb, err := mbtls.NewMiddlebox(cfg)
	if err != nil {
		log.Fatalf("mbtls-proxy: %v", err)
	}
	// Listeners and next-hop dials go through the TCP transport; with
	// -reuseport the host gets one kernel-spread accept loop per core.
	tr := mbtls.NewTCPTransport(mbtls.TCPTransportConfig{ReusePort: *reusePort})
	host, err := mbtls.NewSessionHost(mbtls.SessionHostConfig{
		Name:         "mbtls-proxy",
		MaxSessions:  sessions,
		DrainTimeout: *drain,
		BufPool:      pool,
		Handler: mbtls.NewMiddleboxHandler(mb, func() (net.Conn, error) {
			return tr.Dial(*next)
		}),
		MiddleboxStats: mb.Stats,
		KeySharePool:   ksPool,
		TicketKeys:     stek,
	})
	if err != nil {
		log.Fatalf("mbtls-proxy: %v", err)
	}

	lns, err := tr.ListenShards(*listen, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatalf("mbtls-proxy: %v", err)
	}
	log.Printf("mbtls-proxy: %s middlebox on %s → %s (sgx=%v, accountability=%s, listeners=%d)",
		*mode, *listen, *next, *sgx, acct, len(lns))
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				logStats(host.Snapshot())
			}
		}()
	}

	// Shutdown closes the listener, which makes Serve return nil; main
	// then waits for the drain goroutine's final log line before
	// exiting.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("mbtls-proxy: draining (deadline %v)", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := host.Shutdown(ctx)
		m := host.Snapshot()
		log.Printf("mbtls-proxy: drained in %v (forced %d): %v", m.DrainTime, m.ForceClosed, err)
		if stek != nil {
			stek.Wipe() // no session is left to seal or open a ticket
		}
	}()

	if err := host.ServeListeners(lns); err != nil {
		log.Fatalf("mbtls-proxy: %v", err)
	}
	<-drained
}

// logStats prints the host's aggregated counters, including the
// fronted middlebox's data-plane stats and the handshake fast-path
// surfaces (resumptions, keyshare pool hit rate, STEK rotations).
func logStats(m mbtls.SessionHostMetrics) {
	s := m.Middlebox
	log.Printf("mbtls-proxy: stats active=%d handshaking=%d accepted=%d completed=%d failed=%d overloaded=%d "+
		"sessions=%d mbtls=%d relayed=%d rekeyed=%d pipelined=%d bytes=%d announce_skipped=%d faults=%d resumed=%d",
		m.ActiveSessions, m.HandshakesInFlight, m.Accepted, m.Completed, m.Failed, m.Overloaded,
		s.Sessions, s.MbTLSSessions, s.RecordsRelayed, s.RecordsRekeyed, s.RecordsPipelined,
		s.BytesProcessed, s.AnnounceSkipped, s.FaultsObserved, s.SessionsResumed)
	if p := m.KeySharePool; p != nil {
		log.Printf("mbtls-proxy: fastpath keyshares hit=%d miss=%d hit_rate=%.2f wiped=%d stek_rotations=%d",
			p.Hits, p.Misses, p.HitRate(), p.Wiped, m.TicketKeyRotations)
	}
}
