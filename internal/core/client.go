package core

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/secmem"
	"repro/internal/tls12"
)

// secondaryResult is the outcome of one secondary handshake.
type secondaryResult struct {
	sub     uint8
	conn    *tls12.Conn
	summary MiddleboxSummary
	err     error
	// ticket is the NewSessionTicket the middlebox issued on this
	// secondary session, when chain-ticket collection is on.
	ticket *tls12.SessionTicket
	// skip marks subchannels intentionally ignored (announcements at a
	// server configured not to accept middleboxes).
	skip bool
}

// watchSubchannels dispatches each peer-opened subchannel to handle and
// closes results once stop is signaled and all handlers finished. The
// single goroutine owns the WaitGroup, so no handler can start after
// the final Wait. results is buffered for maxSubchannels so a handler's
// send never blocks; it carries pointers because that buffer is
// allocated per session, whatever the chain's length.
func watchSubchannels(m *mux, stop <-chan struct{}, results chan<- *secondaryResult, handle func(uint8) secondaryResult) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		close(results)
	}()
	dispatch := func(sub uint8) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := handle(sub)
			results <- &r
		}()
	}
	for {
		select {
		case sub, ok := <-m.newSub:
			if !ok {
				return
			}
			dispatch(sub)
		case <-stop:
			// Subchannels opened during the handshake may still be
			// queued; drain them before closing the window.
			for {
				select {
				case sub, ok := <-m.newSub:
					if !ok {
						return
					}
					dispatch(sub)
				default:
					return
				}
			}
		}
	}
}

// Dial establishes an mbTLS session as the client over an existing
// transport connection (paper §3.4). The transport should reach the
// server, possibly through on-path middleboxes, or reach the first
// pre-configured middlebox from cfg.KnownMiddleboxes.
//
// The primary handshake and all secondary (middlebox) handshakes run
// interleaved over the single connection; no round trips are added
// (property P7). If the server is a legacy TLS endpoint the session
// still succeeds, with client-side middleboxes bridging to it over the
// primary session key (property P5).
func Dial(transport net.Conn, cfg *ClientConfig) (*Session, error) {
	if cfg == nil || cfg.TLS == nil {
		return nil, errors.New("core: ClientConfig.TLS is required")
	}
	acct, err := newClientAccountability(cfg)
	if err != nil {
		return nil, err
	}
	tcfg := *cfg.TLS
	ct := cfg.ChainTicket
	if ct != nil && tcfg.SessionTicket == nil {
		tcfg.SessionTicket = ct.Primary
	}
	tcfg.MiddleboxSupport = &tls12.MiddleboxSupport{
		Middleboxes:  cfg.KnownMiddleboxes,
		NeighborKeys: cfg.NeighborKeys,
		HopTickets:   ct.offeredHopTickets(),
	}
	acct.annotatePrimary(&tcfg)

	// Chain-ticket collection: capture the primary's NewSessionTicket
	// here and each hop's on its secondary (below), then assemble them
	// in path order once the chain is approved.
	var primaryTicket *tls12.SessionTicket
	collect := cfg.OnNewChainTicket != nil
	if collect {
		tcfg.EnableTickets = true
		userOnNew := tcfg.OnNewTicket
		tcfg.OnNewTicket = func(st *tls12.SessionTicket) {
			primaryTicket = st // handshake goroutine; read after primaryDone
			if userOnNew != nil {
				userOnNew(st)
			}
		}
	}

	hello, helloRaw, err := tls12.NewClientHello(&tcfg)
	if err != nil {
		return nil, err
	}
	// The optimistic hello of the MiddleboxSupport extension is the
	// primary ClientHello itself, serving double duty (paper §3.4).
	m := newMux(transport)
	hw := watchHandshake(handshakeLimit(cfg.HandshakeTimeout), m, transport)
	defer hw.stop()
	// Arm the phase deadline before the first write: a stalled transport
	// can wedge the hello itself, and nothing else would unblock it.
	hw.enter(PhasePrimaryHandshake)
	prl := tls12.NewRecordLayer(m.primary)
	if err := prl.WriteRecord(tls12.TypeHandshake, helloRaw); err != nil {
		if te := hw.err(); te != nil {
			err = te
		}
		transport.Close()
		return nil, err
	}
	pconn := tls12.ClientWithSentHello(prl, &tcfg, hello, helloRaw)

	primaryDone := make(chan error, 1)
	go func() { primaryDone <- pconn.Handshake() }()

	// Watch for middleboxes joining on subchannels. Middleboxes inject
	// their secondary ServerHello before forwarding the primary
	// ServerHello, so every subchannel exists at the mux before the
	// primary handshake can complete.
	secCfg := secondaryClientConfig(cfg.TLS, cfg.MiddleboxTLS, acct)
	secCfg.HopTickets = ct.hopTicketMap()
	results := make(chan *secondaryResult, maxSubchannels)
	stop := make(chan struct{})
	go watchSubchannels(m, stop, results, func(sub uint8) secondaryResult {
		return runClientSecondary(m, sub, secCfg, hello, helloRaw, collect)
	})

	fail := func(err error) (*Session, error) {
		// When a phase deadline fired, the watcher killed the mux and
		// the error observed here is whatever secondary failure that
		// unblocking produced; surface the typed timeout instead.
		if te := hw.err(); te != nil {
			err = te
		}
		m.fail(err)
		transport.Close()
		return nil, err
	}

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
	// Higher subchannel IDs were self-assigned closer to the client
	// (paper §3.4, "Client-Side Middleboxes"), so descending order is
	// path order from the client outward.
	sort.Slice(secs, func(i, j int) bool { return secs[i].sub > secs[j].sub })

	// A resumed secondary handshake carries no certificates or quote;
	// possession of the hop ticket's master secret proves the peer is
	// the middlebox verified on the original session, so the approval
	// facts come from the chain ticket that was redeemed.
	resumedHops := 0
	for i := range secs {
		hop := secs[i].conn.ConnectionState().ResumedHop
		if hop == "" {
			continue
		}
		h := ct.Hop(hop)
		if h == nil {
			return fail(fmt.Errorf("core: middlebox resumed unknown hop %q", hop))
		}
		resumedHops++
		secs[i].summary.Name = h.Name
		secs[i].summary.Attested = h.Attested
		secs[i].summary.Measurement = h.Measurement
	}

	for i := range secs {
		if err := acct.checkHop(secs[i].summary); err != nil {
			return fail(err)
		}
		if cfg.Approve != nil && !cfg.Approve(secs[i].summary) {
			return fail(fmt.Errorf("core: middlebox %q rejected by application", secs[i].summary.Name))
		}
	}

	hw.enter(PhaseKeyDistribution)
	if cfg.NeighborKeys {
		if err := clientNeighborKeys(m, pconn, secCfg, len(secs) > 0); err != nil {
			return fail(err)
		}
	} else if err := distributeClientKeys(pconn, secs); err != nil {
		return fail(err)
	}
	// Per-hop accountability credentials (proxysig delegation warrants)
	// ride the same retained secondary connections, still under the
	// key-distribution phase deadline.
	audit, err := acct.establishCredentials(secs, ct)
	if err != nil {
		return fail(err)
	}
	hw.stop()

	sess := &Session{
		conn:           pconn,
		m:              m,
		transport:      transport,
		acct:           acct.kind(),
		audit:          audit,
		resumedPrimary: pconn.ConnectionState().Resumed,
		resumedHops:    resumedHops,
	}
	for _, r := range secs {
		sess.mboxes = append(sess.mboxes, r.summary)
	}

	if collect {
		nct := &ChainTicket{Primary: primaryTicket}
		for _, r := range secs {
			if r.ticket == nil {
				continue
			}
			nct.Hops = append(nct.Hops, ChainHop{
				Name:         r.summary.Name,
				Ticket:       r.ticket.Ticket,
				CipherSuite:  r.ticket.CipherSuite,
				MasterSecret: r.ticket.MasterSecret,
				Attested:     r.summary.Attested,
				Measurement:  r.summary.Measurement,
				LeafPub:      hopLeafPub(r.summary, ct),
			})
		}
		if nct.Primary != nil || len(nct.Hops) > 0 {
			cfg.OnNewChainTicket(nct)
		}
	}
	return sess, nil
}

// runClientSecondary completes one secondary handshake in which the
// discovered middlebox plays the server role against the (already
// sent) primary ClientHello.
func runClientSecondary(m *mux, sub uint8, cfg *tls12.Config, hello *tls12.ClientHello, helloRaw []byte, collectTicket bool) secondaryResult {
	pipe := m.subchannel(sub, false)
	rl := tls12.NewRecordLayer(pipe)
	r := secondaryResult{sub: sub}
	if collectTicket {
		c := *cfg
		c.EnableTickets = true
		c.OnNewTicket = func(st *tls12.SessionTicket) { r.ticket = st }
		cfg = &c
	}
	conn := tls12.ClientWithSentHello(rl, cfg, hello, helloRaw)
	if err := conn.Handshake(); err != nil {
		return secondaryResult{sub: sub, err: err}
	}
	r.conn = conn
	r.summary = summarize(sub, conn.ConnectionState())
	return r
}

// clientNeighborKeys establishes the client's adjacent hop key by a
// neighbor handshake with the first middlebox over subchannel 0
// (§4.2's alternative mode). With no middleboxes, the primary session
// keys remain in place and no neighbor handshake runs.
func clientNeighborKeys(m *mux, pconn *tls12.Conn, secCfg *tls12.Config, haveMboxes bool) error {
	if !haveMboxes {
		return nil
	}
	ncfg := *secCfg
	ncfg.RequestAttestation = false // identity was verified on the secondary session
	hop, err := runNeighborClient(m.subchannel(neighborSubchannel, false), &ncfg)
	if err != nil {
		return err
	}
	defer hop.Wipe() // cipher states copy the keys; nothing else needs them
	writeCS, err := tls12.NewCipherState(hop.Suite, hop.C2SKey, hop.C2SIV, hop.C2SSeq)
	if err != nil {
		return err
	}
	readCS, err := tls12.NewCipherState(hop.Suite, hop.S2CKey, hop.S2CIV, hop.S2CSeq)
	if err != nil {
		return err
	}
	pconn.InstallDataCiphers(readCS, writeCS)
	return nil
}

// distributeClientKeys generates the client-side per-hop keys, sends
// each middlebox its MBTLSKeyMaterial over the secondary session, and
// installs the client's own adjacent-hop ciphers (paper Figure 4).
func distributeClientKeys(pconn *tls12.Conn, secs []secondaryResult) error {
	if len(secs) == 0 {
		return nil // endpoint keeps the primary session keys
	}
	sk, err := pconn.ExportSessionKeys()
	if err != nil {
		return err
	}
	suite := sk.Suite
	hops := make([]*HopKeys, len(secs)+1)
	// Wiping the hops on every exit also clears sk: the bridge hop
	// aliases the exported session-key slices.
	defer func() {
		for _, h := range hops {
			h.Wipe()
		}
	}()
	for i := 0; i < len(secs); i++ {
		if hops[i], err = GenerateHopKeys(suite); err != nil {
			return err
		}
	}
	hops[len(secs)] = BridgeHopKeys(sk)

	for i, r := range secs {
		km := &KeyMaterial{Version: tls12.VersionTLS12, Down: *hops[i], Up: *hops[i+1]}
		buf := km.marshal()
		err := r.conn.WriteKeyMaterial(buf)
		secmem.Wipe(buf)
		if err != nil {
			return fmt.Errorf("core: key distribution to %q: %w", r.summary.Name, err)
		}
	}

	// The client's own data plane now speaks the first hop's keys.
	writeCS, err := tls12.NewCipherState(suite, hops[0].C2SKey, hops[0].C2SIV, hops[0].C2SSeq)
	if err != nil {
		return err
	}
	readCS, err := tls12.NewCipherState(suite, hops[0].S2CKey, hops[0].S2CIV, hops[0].S2CSeq)
	if err != nil {
		return err
	}
	pconn.InstallDataCiphers(readCS, writeCS)
	return nil
}
