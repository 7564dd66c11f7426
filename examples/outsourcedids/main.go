// Outsourced IDS: the paper's headline use case (§1, §3) end to end.
// An intrusion-detection middlebox is outsourced to an untrusted cloud
// provider: it runs inside a simulated SGX enclave (the infrastructure
// provider can read neither session data nor keys), attests its exact
// build to the client, and — using the §4.2 neighbor-keys mode — not
// even the endpoints hold its non-adjacent hop keys.
//
//	go run ./examples/outsourcedids
package main

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	mbtls "repro"
	"repro/internal/httpx"
	"repro/internal/netsim"
)

func main() {
	ca, err := mbtls.NewCA("enterprise root")
	if err != nil {
		log.Fatal(err)
	}
	serverCert := mustIssue(ca, "origin.example")
	idsCert := mustIssue(ca, "ids.cloudprovider.example")

	authority, err := mbtls.NewAuthority()
	if err != nil {
		log.Fatal(err)
	}
	platform, err := authority.NewPlatform() // the untrusted cloud's SGX machine
	if err != nil {
		log.Fatal(err)
	}
	authority.Wipe() // its one endorsement is made; clients need only its public key
	idsImage := mbtls.CodeImage{Name: "sgx-ids", Version: "4.2.0", Config: "ruleset=2026-07"}
	encl := platform.CreateEnclave(idsImage)

	var alerts atomic.Int64
	ids, err := mbtls.NewMiddlebox(mbtls.MiddleboxConfig{
		Mode:          mbtls.ClientSide,
		Certificate:   idsCert,
		Enclave:       encl,
		NeighborRoots: ca.Pool(),
		NewProcessor: func() mbtls.Processor {
			// The detection logic runs inside the enclave with the
			// plaintext; signatures here stand in for a Snort-style
			// ruleset.
			return mbtls.ProcessorFunc(func(dir mbtls.Direction, chunk []byte) ([]byte, error) {
				if strings.Contains(strings.ToLower(string(chunk)), "exploit-kit") {
					alerts.Add(1)
					fmt.Printf("  [ids] ALERT (%s): signature match in %d-byte chunk\n", dir, len(chunk))
				}
				return chunk, nil
			})
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	clientEnd, idsDown := netsim.Pipe()
	idsUp, serverEnd := netsim.Pipe()
	go ids.Handle(idsDown, idsUp) //nolint:errcheck

	go func() {
		sess, err := mbtls.Accept(serverEnd, &mbtls.ServerConfig{
			TLS: &mbtls.TLSConfig{Certificate: serverCert},
		})
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		defer sess.Close()
		httpx.Serve(sess, func(req *httpx.Request) *httpx.Response { //nolint:errcheck
			return &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: []byte("served " + req.Path)}
		})
	}()

	sess, err := mbtls.Dial(clientEnd, &mbtls.ClientConfig{
		TLS:                         &mbtls.TLSConfig{RootCAs: ca.Pool(), ServerName: "origin.example"},
		MiddleboxTLS:                &mbtls.TLSConfig{RootCAs: ca.Pool()},
		NeighborKeys:                true, // §4.2: endpoints keep only adjacent hop keys
		RequireMiddleboxAttestation: true,
		MiddleboxVerifier: &mbtls.Verifier{
			Authority: authority.PublicKey(),
			Allowed:   []mbtls.Measurement{idsImage.Measurement()},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	mb := sess.Middleboxes()[0]
	fmt.Printf("client: IDS %q attested (%s), neighbor-keyed hops active\n", mb.Name, mb.Measurement)

	client := httpx.NewClient(sess)
	for _, path := range []string{"/index.html", "/downloads/EXPLOIT-KIT-payload.bin", "/about"} {
		resp, err := client.Do(&httpx.Request{Method: "GET", Path: path, Host: "origin.example", Header: httpx.Header{}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client: GET %-36s → %d\n", path, resp.StatusCode)
	}

	fmt.Printf("\nids: %d alert(s) raised inside the enclave\n", alerts.Load())
	//lint:ignore enclaveboundary the demo's point is showing the provider's (empty) host-memory view
	fmt.Printf("cloud provider's view of IDS memory: %d secrets (SGX)\n", len(ids.Vault().DumpHostMemory()))
}

func mustIssue(ca *mbtls.CA, name string) *mbtls.Certificate {
	cert, err := ca.Issue(name, []string{name}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return cert
}
