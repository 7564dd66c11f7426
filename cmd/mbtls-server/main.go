// Command mbtls-server runs an HTTP-over-mbTLS origin server. On first
// start it provisions a PKI under -pki (root CA, server certificate,
// middlebox-provider certificate) that the companion mbtls-proxy and
// mbtls-client commands load.
//
// Example session (three shells):
//
//	mbtls-server -listen :8443 -pki ./pki
//	mbtls-proxy  -listen :8444 -next localhost:8443 -pki ./pki
//	mbtls-client -connect localhost:8444 -pki ./pki /index.html
package main

import (
	"context"
	"crypto/x509"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	mbtls "repro"
	"repro/internal/certs"
	"repro/internal/httpx"
)

func main() {
	listen := flag.String("listen", ":8443", "address to listen on")
	pkiDir := flag.String("pki", "./pki", "PKI directory (created if missing)")
	serverName := flag.String("name", "origin.example", "server certificate name")
	acceptMboxes := flag.Bool("accept-middleboxes", true, "accept server-side middlebox announcements")
	accountability := flag.String("accountability", "attest", "accountability mode: attest or proxysig")
	statsEvery := flag.Duration("stats", 0, "log cumulative session/fault counters at this interval (0 disables)")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent sessions (0 = default)")
	reusePort := flag.Bool("reuseport", false, "bind one SO_REUSEPORT listener per core (Linux)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	flag.Parse()

	acct, err := mbtls.ParseAccountability(*accountability)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbtls-server: invalid -accountability %q (accepted values: attest, proxysig)\n", *accountability)
		os.Exit(2)
	}

	pool, serverCert, err := loadOrCreatePKI(*pkiDir, *serverName)
	if err != nil {
		log.Fatalf("mbtls-server: pki: %v", err)
	}

	cfg := &mbtls.ServerConfig{
		TLS:               &mbtls.TLSConfig{Certificate: serverCert},
		AcceptMiddleboxes: *acceptMboxes,
		MiddleboxTLS:      &mbtls.TLSConfig{RootCAs: pool},
		Accountability:    acct,
	}

	host, err := mbtls.NewSessionHost(mbtls.SessionHostConfig{
		Name:         "mbtls-server",
		MaxSessions:  *maxSessions,
		DrainTimeout: *drain,
		Handler:      mbtls.NewServerHandler(cfg, serveSession(*serverName)),
	})
	if err != nil {
		log.Fatalf("mbtls-server: %v", err)
	}

	// Listen through the TCP transport; with -reuseport the
	// host gets one kernel-spread accept loop per core.
	tr := mbtls.NewTCPTransport(mbtls.TCPTransportConfig{ReusePort: *reusePort})
	lns, err := tr.ListenShards(*listen, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatalf("mbtls-server: %v", err)
	}
	log.Printf("mbtls-server: serving https(mbTLS)://%s on %s (pki: %s, accountability=%s, listeners=%d)",
		*serverName, *listen, *pkiDir, acct, len(lns))

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				m := host.Snapshot()
				log.Printf("mbtls-server: stats active=%d handshaking=%d accepted=%d completed=%d failed=%d "+
					"overloaded=%d relayed=%d faults=%d",
					m.ActiveSessions, m.HandshakesInFlight, m.Accepted, m.Completed, m.Failed,
					m.Overloaded, m.Sessions.RecordsRelayed, m.Sessions.FaultsObserved)
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
		log.Printf("mbtls-server: draining (deadline %v)", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := host.Shutdown(ctx)
		m := host.Snapshot()
		log.Printf("mbtls-server: drained in %v (forced %d): %v", m.DrainTime, m.ForceClosed, err)
	}()

	if err := host.ServeListeners(lns); err != nil {
		log.Fatalf("mbtls-server: %v", err)
	}
	<-drained
}

// serveSession returns the per-session application loop: HTTP over an
// established mbTLS session.
func serveSession(serverName string) func(*mbtls.Session) error {
	return func(sess *mbtls.Session) error {
		for _, mb := range sess.Middleboxes() {
			log.Printf("mbtls-server: session includes middlebox %q (attested=%v)", mb.Name, mb.Attested)
		}
		return httpx.Serve(sess, func(req *httpx.Request) *httpx.Response {
			log.Printf("mbtls-server: %s %s (Via: %q)", req.Method, req.Path, req.Header.Get("Via"))
			body := fmt.Sprintf("hello from %s — you asked for %s\nVia header seen: %q\n",
				serverName, req.Path, req.Header.Get("Via"))
			return &httpx.Response{
				StatusCode: 200,
				Header:     httpx.Header{"Content-Type": "text/plain"},
				Body:       []byte(body),
			}
		})
	}
}

// loadOrCreatePKI provisions (or loads) root.pem, server.pem/.key, and
// proxy.pem/.key under dir.
func loadOrCreatePKI(dir, serverName string) (*x509.CertPool, *mbtls.Certificate, error) {
	rootPath := filepath.Join(dir, "root.pem")
	if _, err := os.Stat(rootPath); os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		ca, err := certs.NewCA("mbtls demo root")
		if err != nil {
			return nil, nil, err
		}
		if err := ca.SaveRootPEM(rootPath); err != nil {
			return nil, nil, err
		}
		serverCert, err := ca.Issue(serverName, []string{serverName}, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := certs.SaveCertPEM(serverCert, filepath.Join(dir, "server.pem"), filepath.Join(dir, "server.key")); err != nil {
			return nil, nil, err
		}
		proxyCert, err := ca.Issue("proxy.example", []string{"proxy.example"}, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := certs.SaveCertPEM(proxyCert, filepath.Join(dir, "proxy.pem"), filepath.Join(dir, "proxy.key")); err != nil {
			return nil, nil, err
		}
		log.Printf("mbtls-server: provisioned new PKI in %s", dir)
	}
	pool, err := certs.LoadPoolPEM(rootPath)
	if err != nil {
		return nil, nil, err
	}
	serverCert, err := certs.LoadCertPEM(filepath.Join(dir, "server.pem"), filepath.Join(dir, "server.key"))
	if err != nil {
		return nil, nil, err
	}
	return pool, serverCert, nil
}
