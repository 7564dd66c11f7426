package core

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"

	"repro/internal/secmem"
	"repro/internal/tls12"
)

// Accept establishes an mbTLS session as the server over an accepted
// transport connection. Server-side middleboxes announce themselves on
// subchannels before the ClientHello arrives (paper §3.4,
// "Server-Side Middleboxes"); the server runs a client-role secondary
// handshake toward each, then distributes server-side per-hop keys.
//
// If cfg.AcceptMiddleboxes is false, announcements make the handshake
// fail or are skipped according to cfg.TLS.LenientUnknownRecords —
// the two legacy-server behaviors the paper observes.
func Accept(transport net.Conn, cfg *ServerConfig) (*Session, error) {
	if cfg == nil || cfg.TLS == nil {
		return nil, errors.New("core: ServerConfig.TLS is required")
	}
	acct, err := newServerAccountability(cfg)
	if err != nil {
		return nil, err
	}
	tcfg := *cfg.TLS

	m := newMux(transport)
	hw := watchHandshake(handshakeLimit(cfg.HandshakeTimeout), m, transport)
	defer hw.stop()
	prl := tls12.NewRecordLayer(m.primary)
	pconn := tls12.Server(prl, &tcfg)

	primaryDone := make(chan error, 1)
	go func() { primaryDone <- pconn.Handshake() }()

	secCfg := secondaryClientConfig(cfg.TLS, cfg.MiddleboxTLS, acct)
	// The secondary handshakes toward middleboxes must not carry the
	// server's SNI or offer tickets.
	secCfg.ServerName = ""
	secCfg.EnableTickets = false

	// Neighbor-keys mode (§4.2): the last client-side middlebox opens
	// subchannel 0 for a hop handshake in which the server plays its
	// usual server role.
	type neighborResult struct {
		hop *HopKeys
		err error
	}
	neighborCh := make(chan neighborResult, 1)
	var neighborStarted atomic.Bool

	results := make(chan *secondaryResult, maxSubchannels)
	stop := make(chan struct{})
	go watchSubchannels(m, stop, results, func(sub uint8) secondaryResult {
		if sub == neighborSubchannel {
			neighborStarted.Store(true)
			go func() {
				ncfg := tls12.Config{
					Certificate:  cfg.TLS.Certificate,
					CipherSuites: cfg.TLS.CipherSuites,
					Stopwatch:    cfg.TLS.Stopwatch,
				}
				hop, err := runNeighborServer(m.subchannel(neighborSubchannel, false), &ncfg)
				neighborCh <- neighborResult{hop, err}
			}()
			return secondaryResult{sub: sub, skip: true}
		}
		if !cfg.AcceptMiddleboxes {
			return secondaryResult{sub: sub, skip: true}
		}
		return runServerSecondary(m, sub, secCfg)
	})

	fail := func(err error) (*Session, error) {
		// Surface the typed phase timeout over the secondary error its
		// unblocking produced (see Dial).
		if te := hw.err(); te != nil {
			err = te
		}
		m.fail(err)
		transport.Close()
		return nil, err
	}

	hw.enter(PhasePrimaryHandshake)
	if err := <-primaryDone; err != nil {
		return fail(err)
	}
	close(stop)
	hw.enter(PhaseSecondaryHandshakes)

	var secs []secondaryResult
	for r := range results {
		if r.skip {
			continue
		}
		if r.err != nil {
			return fail(fmt.Errorf("core: middlebox handshake (subchannel %d): %w", r.sub, r.err))
		}
		secs = append(secs, *r)
	}
	// Higher subchannel IDs were self-assigned closer to the server,
	// so ascending order runs from the bridge toward the server
	// (paper Figure 4: S0, S1, ...).
	sort.Slice(secs, func(i, j int) bool { return secs[i].sub < secs[j].sub })

	for i := range secs {
		if err := acct.checkHop(secs[i].summary); err != nil {
			return fail(err)
		}
		if cfg.Approve != nil && !cfg.Approve(secs[i].summary) {
			return fail(fmt.Errorf("core: middlebox %q rejected by application", secs[i].summary.Name))
		}
	}

	hw.enter(PhaseKeyDistribution)
	hello := pconn.ConnectionState().ClientHello
	neighborMode := hello != nil && hello.MiddleboxSupport != nil && hello.MiddleboxSupport.NeighborKeys
	switch {
	case neighborMode:
		if len(secs) > 0 {
			return fail(errors.New("core: server-side middleboxes are unsupported in neighbor-keys mode"))
		}
		if neighborStarted.Load() {
			r := <-neighborCh
			if r.err != nil {
				return fail(r.err)
			}
			readCS, err := tls12.NewCipherState(r.hop.Suite, r.hop.C2SKey, r.hop.C2SIV, r.hop.C2SSeq)
			if err != nil {
				r.hop.Wipe()
				return fail(err)
			}
			writeCS, err := tls12.NewCipherState(r.hop.Suite, r.hop.S2CKey, r.hop.S2CIV, r.hop.S2CSeq)
			if err != nil {
				r.hop.Wipe()
				return fail(err)
			}
			pconn.InstallDataCiphers(readCS, writeCS)
			r.hop.Wipe() // keys now live only in the installed cipher states
		}
		// Without a neighbor handshake there are no client-side
		// middleboxes; the primary session keys remain in place.
	default:
		if err := distributeServerKeys(pconn, secs); err != nil {
			return fail(err)
		}
	}
	// Server-side hops have no chain ticket; credentials always target
	// the leaf certificate key seen on the (full) secondary handshake.
	audit, err := acct.establishCredentials(secs, nil)
	if err != nil {
		return fail(err)
	}
	hw.stop()

	sess := &Session{conn: pconn, m: m, transport: transport, acct: acct.kind(), audit: audit}
	// Report middleboxes in path order from the server outward.
	for i := len(secs) - 1; i >= 0; i-- {
		sess.mboxes = append(sess.mboxes, secs[i].summary)
	}
	return sess, nil
}

// runServerSecondary consumes a middlebox announcement on a subchannel
// and completes a client-role handshake toward the middlebox.
func runServerSecondary(m *mux, sub uint8, cfg *tls12.Config) secondaryResult {
	pipe := m.subchannel(sub, false)
	rl := tls12.NewRecordLayer(pipe)
	rec, err := rl.ReadRecord()
	if err != nil {
		return secondaryResult{sub: sub, err: err}
	}
	if rec.Type != tls12.TypeMiddleboxAnnouncement {
		return secondaryResult{sub: sub, err: fmt.Errorf("core: expected middlebox announcement, got %s", rec.Type)}
	}
	conn := tls12.Client(rl, cfg)
	if err := conn.Handshake(); err != nil {
		return secondaryResult{sub: sub, err: err}
	}
	return secondaryResult{sub: sub, conn: conn, summary: summarize(sub, conn.ConnectionState())}
}

// distributeServerKeys mirrors distributeClientKeys for the server
// side: secs must be ordered from the bridge toward the server.
func distributeServerKeys(pconn *tls12.Conn, secs []secondaryResult) error {
	if len(secs) == 0 {
		return nil
	}
	sk, err := pconn.ExportSessionKeys()
	if err != nil {
		return err
	}
	suite := sk.Suite
	// hops[0] is the bridge; hops[i] for i>0 are fresh server-side
	// hops; hops[len(secs)] is adjacent to the server.
	hops := make([]*HopKeys, len(secs)+1)
	// Wiping the hops on every exit also clears sk: the bridge hop
	// aliases the exported session-key slices.
	defer func() {
		for _, h := range hops {
			h.Wipe()
		}
	}()
	hops[0] = BridgeHopKeys(sk)
	for i := 1; i <= len(secs); i++ {
		if hops[i], err = GenerateHopKeys(suite); err != nil {
			return err
		}
	}

	for i, r := range secs {
		// Down faces the client side (hops[i]); Up faces the server
		// side (hops[i+1]).
		km := &KeyMaterial{Version: tls12.VersionTLS12, Down: *hops[i], Up: *hops[i+1]}
		buf := km.marshal()
		err := r.conn.WriteKeyMaterial(buf)
		secmem.Wipe(buf)
		if err != nil {
			return fmt.Errorf("core: key distribution to %q: %w", r.summary.Name, err)
		}
	}

	last := hops[len(secs)]
	readCS, err := tls12.NewCipherState(suite, last.C2SKey, last.C2SIV, last.C2SSeq)
	if err != nil {
		return err
	}
	writeCS, err := tls12.NewCipherState(suite, last.S2CKey, last.S2CIV, last.S2CSeq)
	if err != nil {
		return err
	}
	pconn.InstallDataCiphers(readCS, writeCS)
	return nil
}
