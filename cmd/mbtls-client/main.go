// Command mbtls-client fetches a path over mbTLS, approving any
// middleboxes discovered on the way — the curl-equivalent from the
// paper's legacy-interoperability experiment (§5.1).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	mbtls "repro"
	"repro/internal/certs"
	"repro/internal/httpx"
)

func main() {
	connect := flag.String("connect", "localhost:8444", "address to connect to (server or first middlebox)")
	pkiDir := flag.String("pki", "./pki", "PKI directory (provisioned by mbtls-server)")
	serverName := flag.String("name", "origin.example", "expected server name")
	accountability := flag.String("accountability", "attest", "accountability mode: attest or proxysig")
	flag.Parse()
	path := flag.Arg(0)
	if path == "" {
		path = "/"
	}

	acct, err := mbtls.ParseAccountability(*accountability)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbtls-client: invalid -accountability %q (accepted values: attest, proxysig)\n", *accountability)
		os.Exit(2)
	}

	pool, err := certs.LoadPoolPEM(filepath.Join(*pkiDir, "root.pem"))
	if err != nil {
		log.Fatalf("mbtls-client: load roots (run mbtls-server once to provision): %v", err)
	}

	sess, err := mbtls.DialAddr(*connect, &mbtls.ClientConfig{
		TLS:            &mbtls.TLSConfig{RootCAs: pool, ServerName: *serverName},
		MiddleboxTLS:   &mbtls.TLSConfig{RootCAs: pool},
		Accountability: acct,
		Approve: func(mb mbtls.MiddleboxSummary) bool {
			log.Printf("mbtls-client: approving middlebox %q (attested=%v)", mb.Name, mb.Attested)
			return true
		},
	})
	if err != nil {
		log.Fatalf("mbtls-client: %v", err)
	}
	defer sess.Close()

	for _, mb := range sess.Middleboxes() {
		log.Printf("mbtls-client: session middlebox %q on subchannel %d", mb.Name, mb.Subchannel)
	}

	resp, err := httpx.Do(sess, &httpx.Request{
		Method: "GET",
		Path:   path,
		Host:   *serverName,
		Header: httpx.Header{},
	})
	if err != nil {
		log.Fatalf("mbtls-client: fetch: %v", err)
	}
	fmt.Fprintf(os.Stderr, "HTTP/1.1 %d %s\n", resp.StatusCode, resp.Reason)
	os.Stdout.Write(resp.Body)
}
