package netsim_test

import (
	"net"
	"testing"

	"repro/internal/chain"
	"repro/internal/chain/chaintest"
	"repro/internal/core"
	"repro/internal/netsim"
)

// TestConcurrentSessionsThroughFaultyNetwork runs the shared
// concurrent-sessions body (chaintest.ConcurrentSessions: 64 clean
// sessions beside a doomed one, through one shared Network and one
// shared session-host pair) on netsim. The doomed client dies by the
// network: its client→middlebox link carries a seeded reset, so besides
// everything the body exercises, the fault state machine runs under
// -race next to 64 healthy links.
func TestConcurrentSessionsThroughFaultyNetwork(t *testing.T) {
	h := chaintest.NewHosted(t, chain.TransportNetsim)
	h.Fabric.Sim.SetFaultPolicy(func(from, to string) netsim.FaultSpec {
		if from == "client-bad" {
			// Mid-handshake reset on the dialer's (end A's) traffic.
			return netsim.FaultSpec{Kind: netsim.FaultReset, Offset: 300, Seed: 42, Dir: netsim.DirAToB}
		}
		return netsim.FaultSpec{}
	})
	chaintest.ConcurrentSessions(t, h, func(conn net.Conn, ccfg *core.ClientConfig) error {
		sess, err := core.Dial(conn, ccfg)
		if err == nil {
			sess.Close()
		}
		return err
	})
}
