package experiments

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/testutil/goleak"
)

// TestChainCells drives every kind of cell the two chain tables run —
// sessions: attest/resumed with a 4 KiB echo on both transports;
// handshake: both accountability modes, full and resumed, 256 B echo
// on netsim — through the one builder and the one driver, and checks
// the row is well formed, the fast path was (or was not) taken,
// proxysig sessions were audited, and Close leaves nothing running.
func TestChainCells(t *testing.T) {
	const workers, perWorker = 2, 2
	cases := []struct {
		table     string
		transport string
		payload   int
		cell      chainCell
	}{
		{"sessions", chain.TransportNetsim, 4096, chainCell{core.AccountAttest, true, workers}},
		{"sessions", chain.TransportTCP, 4096, chainCell{core.AccountAttest, true, workers}},
		{"handshake", chain.TransportNetsim, 256, chainCell{core.AccountAttest, false, workers}},
		{"handshake", chain.TransportNetsim, 256, chainCell{core.AccountAttest, true, workers}},
		{"handshake", chain.TransportNetsim, 256, chainCell{core.AccountProxySig, false, workers}},
		{"handshake", chain.TransportNetsim, 256, chainCell{core.AccountProxySig, true, workers}},
	}
	for _, tc := range cases {
		t.Run(tc.table+"/"+tc.transport+"/"+tc.cell.String(), func(t *testing.T) {
			base := goleak.Base()
			env, err := chain.NewDaemons([]core.Accountability{tc.cell.acct}, workers, tc.transport)
			if err != nil {
				t.Fatal(err)
			}
			row, err := runCell(env, tc.cell, perWorker, core.RandomPlaintext(tc.payload))
			evidence := env.Hops[tc.cell.acct].Middlebox.Stats().EvidenceSigned
			env.Close()
			if err != nil {
				t.Fatal(err)
			}
			goleak.Wait(t, base)

			if row.Sessions != workers*perWorker {
				t.Errorf("completed %d sessions, want %d", row.Sessions, workers*perWorker)
			}
			if row.SessionsPerSec <= 0 {
				t.Errorf("throughput not measured: %+v", row)
			}
			if row.HandshakeP50Ms <= 0 || row.HandshakeP99Ms < row.HandshakeP50Ms {
				t.Errorf("percentiles p50=%f p99=%f malformed", row.HandshakeP50Ms, row.HandshakeP99Ms)
			}
			if tc.cell.resumed && (row.ResumedPrimary == 0 || row.ResumedHops == 0) {
				t.Errorf("resumed cell took no fast path (primary=%d hops=%d)", row.ResumedPrimary, row.ResumedHops)
			}
			if !tc.cell.resumed && (row.ResumedPrimary != 0 || row.ResumedHops != 0) {
				t.Errorf("full cell resumed (primary=%d hops=%d)", row.ResumedPrimary, row.ResumedHops)
			}
			if tc.cell.acct == core.AccountProxySig && evidence < int64(row.Sessions) {
				t.Errorf("middlebox signed %d evidence statements for %d sessions", evidence, row.Sessions)
			}
		})
	}
}

// TestPercentileDuration pins the nearest-rank convention.
func TestPercentileDuration(t *testing.T) {
	if got := percentileDuration(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	var sorted []time.Duration
	for i := 1; i <= 10; i++ {
		sorted = append(sorted, time.Duration(i)*10*time.Millisecond)
	}
	if got := percentileDuration(sorted, 0.50); got != 60*time.Millisecond {
		t.Errorf("p50 of 10..100ms = %v, want 60ms", got)
	}
	if got := percentileDuration(sorted, 0.99); got != 100*time.Millisecond {
		t.Errorf("p99 of 10..100ms = %v, want 100ms", got)
	}
}
