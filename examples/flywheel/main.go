// Flywheel: a data-compression proxy outsourced to untrusted
// infrastructure — the paper's running example ("suppose Google
// implemented its Flywheel proxy using Apache httpd running on Amazon
// EC2", §3.1). The middlebox software (MS) compresses HTTP responses;
// it runs inside a simulated SGX enclave so the infrastructure
// provider (MIP) can neither read session data nor impersonate the
// proxy, and the client verifies the exact proxy build via remote
// attestation before granting it access.
//
//	go run ./examples/flywheel
package main

import (
	"fmt"
	"log"
	"strings"

	mbtls "repro"
	"repro/internal/httpx"
	"repro/internal/mbapps"
	"repro/internal/netsim"
)

func main() {
	ca, err := mbtls.NewCA("flywheel root")
	if err != nil {
		log.Fatal(err)
	}
	serverCert := mustIssue(ca, "origin.example")
	proxyCert := mustIssue(ca, "flywheel.example")

	// The attestation trust chain: an authority (Intel's role)
	// endorses the cloud platform; the proxy's code image defines the
	// measurement clients pin.
	authority, err := mbtls.NewAuthority()
	if err != nil {
		log.Fatal(err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		log.Fatal(err)
	}
	authority.Wipe() // its one endorsement is made; clients need only its public key
	proxyImage := mbtls.CodeImage{Name: "flywheel-proxy", Version: "2.3.1", Config: "deflate,best-speed"}
	encl := platform.CreateEnclave(proxyImage)

	proxy, err := mbtls.NewMiddlebox(mbtls.MiddleboxConfig{
		Mode:        mbtls.ClientSide,
		Certificate: proxyCert,
		Enclave:     encl,
		NewProcessor: func() mbtls.Processor {
			return mbapps.NewCompressor(128) // compress bodies ≥ 128 bytes
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	clientEnd, proxyDown := netsim.Pipe()
	proxyUp, serverEnd := netsim.Pipe()
	go proxy.Handle(proxyDown, proxyUp) //nolint:errcheck

	// Origin server with a verbose, highly compressible page.
	page := strings.Repeat("mbTLS bridges end-to-end security and middleboxes. ", 80)
	go func() {
		sess, err := mbtls.Accept(serverEnd, &mbtls.ServerConfig{
			TLS: &mbtls.TLSConfig{Certificate: serverCert},
		})
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		defer sess.Close()
		httpx.Serve(sess, func(req *httpx.Request) *httpx.Response { //nolint:errcheck
			return &httpx.Response{
				StatusCode: 200,
				Header:     httpx.Header{"Content-Type": "text/plain"},
				Body:       []byte(page),
			}
		})
	}()

	// The client requires the proxy to attest as the exact Flywheel
	// build it expects.
	sess, err := mbtls.Dial(clientEnd, &mbtls.ClientConfig{
		TLS:                         &mbtls.TLSConfig{RootCAs: ca.Pool(), ServerName: "origin.example"},
		MiddleboxTLS:                &mbtls.TLSConfig{RootCAs: ca.Pool()},
		RequireMiddleboxAttestation: true,
		MiddleboxVerifier: &mbtls.Verifier{
			Authority: authority.PublicKey(),
			Allowed:   []mbtls.Measurement{proxyImage.Measurement()},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	mb := sess.Middleboxes()[0]
	fmt.Printf("client: proxy %q attested with measurement %s\n", mb.Name, mb.Measurement)

	resp, err := httpx.Do(sess, &httpx.Request{Method: "GET", Path: "/article", Host: "origin.example", Header: httpx.Header{}})
	if err != nil {
		log.Fatal(err)
	}
	compressed := len(resp.Body)
	if err := mbapps.Decompress(resp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: received %d bytes on the wire for a %d-byte page (%.0f%% saved by the proxy)\n",
		compressed, len(resp.Body), 100*(1-float64(compressed)/float64(len(resp.Body))))
	if string(resp.Body) != page {
		log.Fatal("page corrupted in transit")
	}
	fmt.Println("client: page decompressed and verified byte-for-byte")
}

func mustIssue(ca *mbtls.CA, name string) *mbtls.Certificate {
	cert, err := ca.Issue(name, []string{name}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return cert
}
