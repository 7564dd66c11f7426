package transport_test

import (
	"net"
	"testing"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
)

// TestNetsimConformance runs the full transport conformance suite
// against the netsim backend, pairing conns the way sessions do: a
// listener on one node, a dial from another, through the Transport
// adapter.
func TestNetsimConformance(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Pair {
		n := netsim.NewNetwork()
		tr := transport.NewNetsim(n, "client")
		ln, err := tr.Listen("server")
		if err != nil {
			t.Fatalf("netsim listen: %v", err)
		}
		type accepted struct {
			c   net.Conn
			err error
		}
		acc := make(chan accepted, 1)
		go func() {
			c, err := ln.Accept()
			acc <- accepted{c, err}
		}()
		a, err := tr.Dial("server")
		if err != nil {
			t.Fatalf("netsim dial: %v", err)
		}
		got := <-acc
		if got.err != nil {
			a.Close()
			t.Fatalf("netsim accept: %v", got.err)
		}
		return conformancetest.Pair{A: a, B: got.c, Release: func() { ln.Close() }, Ideal: true}
	})
}

// TestNetsimPolicyAppliesToEveryDial pins the policy-keying contract:
// the transport suffixes its node name per dial (client, client#2, …),
// and netsim strips the suffix before policy lookups, so a fault
// policy keyed on the configured (from, to) pair must hit the second
// and later connections too.
func TestNetsimPolicyAppliesToEveryDial(t *testing.T) {
	n := netsim.NewNetwork()
	hits := 0
	n.SetFaultPolicy(func(from, to string) netsim.FaultSpec {
		if from == "client" && to == "server" {
			hits++
			return netsim.FaultSpec{Kind: netsim.FaultReset}
		}
		return netsim.FaultSpec{}
	})
	tr := transport.NewNetsim(n, "client")
	ln, err := tr.Listen("server")
	if err != nil {
		t.Fatalf("netsim listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	for i := 1; i <= 3; i++ {
		c, err := tr.Dial("server")
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		// FaultReset at offset 0 fails the very first write; a clean
		// link (the pre-fix behavior for dial 2+, whose node name no
		// longer matched the policy) would buffer it successfully.
		if _, err := c.Write([]byte{0}); err == nil {
			t.Fatalf("dial %d: write succeeded, want injected reset", i)
		}
		c.Close()
	}
	if hits != 3 {
		t.Fatalf("fault policy matched %d dials, want 3", hits)
	}
}

// TestNetsimTransportName pins the backend name benchmarks key on.
func TestNetsimTransportName(t *testing.T) {
	tr := transport.NewNetsim(netsim.NewNetwork(), "client")
	if got := tr.Name(); got != "netsim" {
		t.Fatalf("Name() = %q, want %q", got, "netsim")
	}
}
