package core

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/certs"
	"repro/internal/enclave"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

// retireHooks hosts a session the way a session host does and keeps its
// force-closer, to call once the session is over.
type retireHooks struct{ forceClose func() }

func (*retireHooks) SessionEstablished()           {}
func (h *retireHooks) RegisterForceClose(f func()) { h.forceClose = f }

// enclavePlanes returns the handles of the data planes installed since
// the nth that e's memory still holds.
func enclavePlanes(e *enclave.Enclave, n uint64) []*enclaveDataPlane {
	var live []*enclaveDataPlane
	for last := dpCounter.Load(); n < last; n++ {
		edp := &enclaveDataPlane{e: e, key: dataPlaneKey(n + 1)}
		if edp.enter(func(*dataPlane) error { return nil }) == nil {
			live = append(live, edp)
		}
	}
	return live
}

// TestDataPlaneRetired: a middlebox session's data plane lives exactly
// as long as the session. While it runs, the plane is in enclave memory
// (SGX) or in the plane registry DumpHostMemory reads (plain); once
// Handle or HandleHosted returns it is in neither, a late force-close
// alert reaches nothing, and over many sessions nothing accumulates.
// Before planes were retired, every SGX session left one in enclave
// memory for good: 2 000 hosted resumed sessions took one enclave from
// 22 entries to 2 022 (6.7 MiB).
func TestDataPlaneRetired(t *testing.T) {
	ca, err := certs.NewCA("retire test root")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.Issue("origin.example", []string{"origin.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mbCert, err := ca.Issue("mb.example", []string{"mb.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	authority, err := enclave.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ccfg := &ClientConfig{TLS: &tls12.Config{RootCAs: ca.Pool(), ServerName: "origin.example"}}
	scfg := &ServerConfig{
		TLS:               &tls12.Config{Certificate: serverCert},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: ca.Pool()},
	}

	const sessions = 10
	for _, sgx := range []bool{false, true} {
		for _, hosted := range []bool{false, true} {
			t.Run(fmt.Sprintf("sgx=%v/hosted=%v", sgx, hosted), func(t *testing.T) {
				var encl *enclave.Enclave
				if sgx {
					encl = platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0"})
				}
				mb, err := NewMiddlebox(MiddleboxConfig{Name: "mb.example", Mode: ClientSide, Certificate: mbCert, Enclave: encl})
				if err != nil {
					t.Fatal(err)
				}
				first := dpCounter.Load()
				for i := 0; i < sessions; i++ {
					retireOne(t, mb, encl, hosted, ccfg, scfg)
				}
				if sgx {
					if live := enclavePlanes(encl, first); len(live) != 0 {
						t.Fatalf("%d sessions left %d data planes in enclave memory", sessions, len(live))
					}
				}
			})
		}
	}
}

// retireOne runs one session through mb — one record each way, then the
// client's close — checking where its data plane is during and after it.
func retireOne(t *testing.T, mb *Middlebox, encl *enclave.Enclave, hosted bool, ccfg *ClientConfig, scfg *ServerConfig) {
	t.Helper()
	cliEnd, mbDown := netsim.Pipe()
	mbUp, srvEnd := netsim.Pipe()
	hooks := &retireHooks{}
	done := make(chan struct{})
	before := dpCounter.Load()
	go func() {
		defer close(done)
		if hosted {
			mb.HandleHosted(mbDown, mbUp, hooks) //nolint:errcheck
		} else {
			mb.Handle(mbDown, mbUp) //nolint:errcheck
		}
	}()
	accepted := make(chan *Session, 1)
	go func() {
		server, err := Accept(srvEnd, scfg)
		if err != nil {
			t.Error(err)
			cliEnd.Close()
		}
		accepted <- server
	}()
	client, err := Dial(cliEnd, ccfg)
	server := <-accepted
	if err != nil || server == nil {
		srvEnd.Close()
		t.Fatalf("session setup: %v", err)
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(server, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}

	// During the session: the plane is where its mode keeps it.
	var plane *enclaveDataPlane
	if encl != nil {
		live := enclavePlanes(encl, before)
		if len(live) != 1 {
			t.Fatalf("live session: %d data planes in enclave memory, want 1", len(live))
		}
		plane = live[0]
		if n := len(mb.DumpHostMemory()); n != 0 {
			t.Fatalf("live SGX session: host dump holds %d data planes, want 0", n)
		}
	} else if n := len(mb.DumpHostMemory()); n != 1 {
		t.Fatalf("live plain session: host dump holds %d data planes, want 1", n)
	}

	client.Close()
	if _, err := server.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server read after client close: %v, want EOF", err)
	}
	<-done
	server.Close()

	// After it: the plane is gone from both places, and a force-close
	// from a host that still holds the closer reaches nothing.
	if plane != nil {
		err := plane.enter(func(*dataPlane) error { return nil })
		if !errors.Is(err, errPlaneMissing) {
			t.Fatalf("ended session: enclave data plane still entered (err %v)", err)
		}
	}
	if n := len(mb.DumpHostMemory()); n != 0 {
		t.Fatalf("ended session: host dump holds %d data planes, want 0", n)
	}
	if hosted {
		var crossed int64
		if encl != nil {
			crossed = encl.Transitions()
		}
		hooks.forceClose()
		if encl != nil && encl.Transitions() != crossed {
			t.Fatalf("a force-close after teardown entered the enclave %d times", (encl.Transitions()-crossed)/2)
		}
	}
}
