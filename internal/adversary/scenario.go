package adversary

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/netsim"
)

// Opts configures a standard attack scenario: an mbTLS client, one
// client-side middlebox, and an mbTLS server, with adversary tamper
// points on both links around the middlebox.
type Opts struct {
	// EnclaveMbox runs the middlebox inside a simulated SGX enclave.
	EnclaveMbox bool
	// Processor optionally installs a data-plane transformer.
	Processor func() core.Processor
	// NeighborKeys selects the §4.2 neighbor-negotiated hop keys mode.
	NeighborKeys bool
}

// Scenario is a live session under attack.
type Scenario struct {
	Mbox   *core.Middlebox
	Client *core.Session
	Server *core.Session
	// T1 sits between the client and the middlebox (hop key K(C-M)),
	// T2 between the middlebox and the server (the bridge key K(C-S)).
	T1, T2 *TamperPoint

	chain      *chain.Chain
	serverRecv chan []byte
	serverErr  chan error
	clientRecv chan []byte
	clientErr  chan error
}

// ErrTimeout reports that an expected delivery did not happen.
var ErrTimeout = errors.New("adversary: timed out")

// NewScenario builds and handshakes the standard scenario.
func NewScenario(opts Opts) (*Scenario, error) {
	sc := &Scenario{
		serverRecv: make(chan []byte, 64),
		serverErr:  make(chan error, 4),
		clientRecv: make(chan []byte, 64),
		clientErr:  make(chan error, 4),
	}
	pki, err := chain.NewPKI()
	if err != nil {
		return nil, err
	}
	mbCfg := core.MiddleboxConfig{Name: "mbox.example", Mode: core.ClientSide, NewProcessor: opts.Processor}
	ccfg := pki.ClientConfig()
	ccfg.NeighborKeys = opts.NeighborKeys
	if opts.NeighborKeys {
		mbCfg.NeighborRoots = pki.CA.Pool()
	}
	if opts.EnclaveMbox {
		image := enclave.CodeImage{Name: "mbtls-mbox", Version: "1.0"}
		mbCfg.Enclave = pki.Platform.CreateEnclave(image)
		ccfg.RequireMiddleboxAttestation = true
		ccfg.MiddleboxVerifier = pki.Verifier(image)
	}
	if sc.Mbox, err = pki.Middlebox(mbCfg); err != nil {
		return nil, err
	}

	// client --T1-- mbox --T2-- server: every hop is two pipes with the
	// adversary spliced between them.
	var taps []*TamperPoint
	sc.chain, err = chain.Wire(func(int) (net.Conn, net.Conn, error) {
		down, tapDown := netsim.Pipe()
		tapUp, up := netsim.Pipe()
		taps = append(taps, NewTamperPoint(tapDown, tapUp, true))
		return down, up, nil
	}, sc.Mbox)
	if err != nil {
		return nil, err
	}
	sc.T1, sc.T2 = taps[0], taps[1]

	sc.Client, sc.Server, err = chain.Establish(sc.chain.Client, sc.chain.Server, ccfg, pki.ServerConfig())
	if err != nil {
		sc.chain.Close()
		return nil, fmt.Errorf("adversary: setup: %w", err)
	}
	go pumpReads(sc.Server, sc.serverRecv, sc.serverErr)
	go pumpReads(sc.Client, sc.clientRecv, sc.clientErr)
	return sc, nil
}

func pumpReads(r interface{ Read([]byte) (int, error) }, recv chan<- []byte, errc chan<- error) {
	for {
		buf := make([]byte, 16384)
		n, err := r.Read(buf)
		if n > 0 {
			recv <- buf[:n]
		}
		if err != nil {
			errc <- err
			return
		}
	}
}

// Close tears the scenario down, wiping the middlebox's vault: probes
// of what an adversary could read must happen while the session lives.
func (sc *Scenario) Close() {
	sc.Client.Close()
	sc.Server.Close()
	sc.chain.Close()
	sc.Mbox.Vault().Wipe()
}

// ServerRecv waits for the next chunk the server accepted.
func (sc *Scenario) ServerRecv(timeout time.Duration) ([]byte, error) {
	select {
	case b := <-sc.serverRecv:
		return b, nil
	case err := <-sc.serverErr:
		return nil, err
	case <-time.After(timeout):
		return nil, ErrTimeout
	}
}

// ServerReadErr waits for the server's read loop to fail (how a
// tampered record surfaces: a fatal bad_record_mac).
func (sc *Scenario) ServerReadErr(timeout time.Duration) error {
	select {
	case err := <-sc.serverErr:
		return err
	case b := <-sc.serverRecv:
		return fmt.Errorf("adversary: server accepted %d bytes instead of failing", len(b))
	case <-time.After(timeout):
		return ErrTimeout
	}
}

// Suite returns the negotiated primary cipher suite.
func (sc *Scenario) Suite() uint16 { return sc.Client.ConnectionState().CipherSuite }
