package sessionhost_test

import (
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sessionhost"
)

// TestSnapshotRace hammers the host's lock-free counters from
// GOMAXPROCS-many reporting sessions while other goroutines snapshot
// continuously (Snapshot takes no lock), then checks: in every snapshot,
// mid-race ones included, aggregates only grow; the final totals are
// exactly what the sessions reported; and both gauges are back at zero
// after Close. Run under -race.
func TestSnapshotRace(t *testing.T) {
	reporters := max(runtime.GOMAXPROCS(0), 4)
	const reportsPer = 1000

	release := make(chan struct{})
	established := make(chan struct{}, reporters)
	handler := sessionhost.HandlerFunc(func(ctl *sessionhost.Control, conn net.Conn) error {
		ctl.SessionEstablished()
		established <- struct{}{}
		for i := 0; i < reportsPer; i++ {
			ctl.ReportStats(core.SessionStats{
				RecordsRelayed:   1,
				Reseals:          2,
				FaultsObserved:   1,
				ResumedPrimary:   1,
				ResumedHops:      3,
				AttestSessions:   1,
				ProxySigSessions: 1,
			})
		}
		<-release
		return nil
	})
	host, err := sessionhost.New(sessionhost.Config{
		Name:        "snap",
		MaxSessions: reporters,
		Handler:     handler,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshotters race the reporters.
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for g := 0; g < 2; g++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			var lastRelayed int64
			var lastAccepted uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := host.Snapshot()
				if m.Sessions.RecordsRelayed < lastRelayed || m.Accepted < lastAccepted {
					t.Errorf("aggregates went backwards: relayed %d after %d, accepted %d after %d",
						m.Sessions.RecordsRelayed, lastRelayed, m.Accepted, lastAccepted)
				}
				lastRelayed, lastAccepted = m.Sessions.RecordsRelayed, m.Accepted
			}
		}()
	}

	for i := 0; i < reporters; i++ {
		c, peer := net.Pipe()
		defer peer.Close()
		if err := host.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reporters; i++ {
		<-established
	}
	close(release)
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	snaps.Wait()

	m := host.Snapshot()
	n := int64(reporters) * reportsPer
	want := core.SessionStats{
		RecordsRelayed: n, Reseals: 2 * n, FaultsObserved: n,
		ResumedPrimary: n, ResumedHops: 3 * n,
		AttestSessions: n, ProxySigSessions: n,
	}
	if m.Sessions != want {
		t.Errorf("final SessionStats = %+v, want %+v", m.Sessions, want)
	}
	if m.Accepted != uint64(reporters) || m.Completed != uint64(reporters) {
		t.Errorf("final admission counters = accepted %d completed %d, want %d/%d",
			m.Accepted, m.Completed, reporters, reporters)
	}
	if m.ActiveSessions != 0 || m.HandshakesInFlight != 0 {
		t.Errorf("gauges after Close = active %d handshaking %d, want 0/0", m.ActiveSessions, m.HandshakesInFlight)
	}
}
