package core

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/secmem"
	"repro/internal/tls12"
)

// role is what differs between the two endpoints of establish; Dial
// and Accept each describe themselves with one (table in DESIGN.md §3).
type role struct {
	acct    accountabilityMode
	timeout time.Duration // the config's HandshakeTimeout, unresolved
	approve func(MiddleboxSummary) bool
	// start begins the primary session: the client writes the
	// ClientHello every secondary will share, the server awaits one.
	start func(rl *tls12.RecordLayer) (*tls12.Conn, error)
	// answer runs the handshake a peer-opened subchannel calls for; a
	// zero result ignores the subchannel.
	answer func(m *mux, sub uint8) secondaryResult
	// clientEnd is the end of its chain the endpoint sits at. establish
	// keeps middleboxes and hops in client→server order for both roles,
	// so this fixes the sort, which end of the hop slice is the bridge
	// and which the endpoint's own hop, and the direction it seals.
	clientEnd bool
	// neighborHop reports whether the session is in neighbor-keys mode
	// (§4.2) and, if so, the endpoint's adjacent hop: the client opens
	// that handshake, the server has answered it. A nil hop keeps the
	// primary session keys.
	neighborHop func(m *mux, pconn *tls12.Conn, secs int, answered secondaryResult) (hop *HopKeys, on bool, err error)
	// chain is the chain ticket being redeemed; established, if set,
	// sees the approved chain last to assemble the next (client only).
	chain       *ChainTicket
	established func(secs []secondaryResult)
}

// secondaryResult is the outcome of answering one subchannel.
type secondaryResult struct {
	sub     uint8
	conn    *tls12.Conn // a completed secondary session
	summary MiddleboxSummary
	err     error
	// ticket is the NewSessionTicket the middlebox issued on this
	// secondary session, when chain-ticket collection is on.
	ticket *tls12.SessionTicket
	// neighbor marks the server's answer to a neighbor hop handshake on
	// subchannel 0. Its hop or err counts only once the session is known
	// to be in neighbor-keys mode.
	neighbor bool
	hop      *HopKeys
}

// wipe zeroizes every secret the result holds and returns its pooled
// record buffers.
func (r *secondaryResult) wipe() {
	retire(r.conn)
	r.hop.Wipe()
	r.ticket.Wipe()
}

// retire wipes a connection nothing will read again and returns its
// pooled record buffers.
func retire(conn *tls12.Conn) {
	if conn == nil {
		return
	}
	conn.Wipe()
	conn.RecordLayer().Release()
}

// completeSecondary runs a secondary handshake in which this endpoint
// plays the client role.
func completeSecondary(sub uint8, conn *tls12.Conn) secondaryResult {
	if err := conn.Handshake(); err != nil {
		retire(conn)
		return secondaryResult{sub: sub, err: err}
	}
	return secondaryResult{sub: sub, conn: conn, summary: summarize(sub, conn.ConnectionState())}
}

// watchSubchannels dispatches each peer-opened subchannel to handle and
// closes results once stop is signaled and all handlers finished. The
// single goroutine owns the WaitGroup, so no handler can start after
// the final Wait. results is unbuffered: establish drains it on every
// path, so a handler's send waits at most for the primary handshake.
func watchSubchannels(m *mux, stop <-chan struct{}, results chan<- secondaryResult, handle func(*mux, uint8) secondaryResult) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		close(results)
	}()
	dispatch := func(sub uint8) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- handle(m, sub)
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
			// queued; drain them before closing the window. Nothing else
			// receives from newSub, so len is a floor on what is ready.
			for n := len(m.newSub); n > 0; n-- {
				if sub, ok := <-m.newSub; ok {
					dispatch(sub)
				}
			}
			return
		}
	}
}

// establish is an mbTLS endpoint's whole job (paper §3.4, Figure 4): the
// primary handshake interleaved with one secondary handshake per
// middlebox on the endpoint's own side, approval of each hop, then
// per-hop keys minted, distributed, and the adjacent hop's installed.
func establish(transport net.Conn, r *role) (*Session, error) {
	// Corked from the start: every flight establish's goroutines write
	// waits in the cork until one of them waits on the peer, key
	// distribution ends, the application is asked to approve, or the
	// engine pushes it, as the client does its hello (DESIGN.md §12
	// "Writers").
	m := newMux(transport)
	hw := watchHandshake(handshakeLimit(r.timeout), clock.Of(transport), func(err error) {
		m.fail(err)
		transport.Close()
	})
	defer hw.stop()

	// Middleboxes inject their secondary flight before forwarding the
	// primary's, so every subchannel exists at the mux before the
	// primary handshake can complete.
	results := make(chan secondaryResult)
	stop := make(chan struct{})
	go watchSubchannels(m, stop, results, r.answer)

	var (
		pconn    *tls12.Conn
		secs     []secondaryResult
		neighbor secondaryResult // the server's answered neighbor hop, if any
	)
	fail := func(err error) (*Session, error) {
		// When a phase deadline fired, the watcher killed the mux and
		// the error observed here is whatever secondary failure that
		// unblocking produced; surface the typed timeout instead.
		if te := hw.err(); te != nil {
			err = te
		}
		m.dropCork()
		m.fail(err)
		transport.Close()
		// Every handler is unblocked now. No secret of a failed
		// establishment stays live: what the handlers completed goes
		// with what was already collected (DESIGN.md §7).
		for res := range results {
			res.wipe()
		}
		for i := range secs {
			secs[i].wipe()
		}
		neighbor.wipe()
		retire(pconn)
		return nil, err
	}

	// Arm the phase deadline before the first write: a stalled transport
	// can wedge the hello itself, and nothing else would unblock it.
	hw.enter(PhasePrimaryHandshake)
	pconn, err := r.start(tls12.NewRecordLayer(m.primary))
	if err == nil {
		// On a goroutine of its own although establish only waits for it:
		// run on the caller's stack, hs_resumed's p50 reads ~6 µs (5 %)
		// slower at the same throughput (EXPERIMENTS.md, PR 16).
		done := make(chan error, 1)
		go func(c *tls12.Conn) { done <- c.Handshake() }(pconn)
		err = <-done
	}
	if err != nil {
		return fail(err)
	}
	close(stop)
	hw.enter(PhaseSecondaryHandshakes)

	for res := range results {
		switch {
		case res.neighbor:
			neighbor = res
		case res.err != nil:
			res.wipe()
			return fail(fmt.Errorf("core: middlebox handshake (subchannel %d): %w", res.sub, res.err))
		case res.conn != nil:
			secs = append(secs, res)
		}
	}
	// Client→server order: server-side IDs grow toward the server (paper
	// Figure 4: S0, S1, ...), client-side IDs toward the client.
	slices.SortFunc(secs, func(a, b secondaryResult) int { return int(a.sub) - int(b.sub) })
	if r.clientEnd {
		slices.Reverse(secs)
	}

	// A resumed secondary handshake carries no certificates or quote;
	// possession of the hop ticket's master secret proves the peer is
	// the middlebox verified on the original session, so the approval
	// facts come from the chain ticket that was redeemed.
	resumedHops := 0
	for i := range secs {
		name := secs[i].conn.ConnectionState().ResumedHop
		if name == "" {
			continue
		}
		h := r.chain.Hop(name)
		if h == nil {
			return fail(fmt.Errorf("core: middlebox resumed unknown hop %q", name))
		}
		resumedHops++
		secs[i].summary.Name = h.Name
		secs[i].summary.Attested = h.Attested
		secs[i].summary.Measurement = h.Measurement
	}

	if r.approve != nil {
		// The application's verdict may take any time: no flight a peer
		// waits on stays corked behind it.
		if err := m.flush(); err != nil {
			return fail(err)
		}
	}
	for i := range secs {
		if err := r.acct.checkHop(secs[i].summary); err != nil {
			return fail(err)
		}
		if r.approve != nil && !r.approve(secs[i].summary) {
			return fail(fmt.Errorf("core: middlebox %q rejected by application", secs[i].summary.Name))
		}
	}

	hw.enter(PhaseKeyDistribution)
	hop, neighborKeys, err := r.neighborHop(m, pconn, len(secs), neighbor)
	if err == nil && neighborKeys {
		err = installHop(pconn, hop, r.clientEnd)
	} else if err == nil {
		err = distributeKeys(pconn, secs, r.clientEnd)
	}
	if err == nil {
		// Key distribution is over: the flights still corked leave in
		// one write, and later writes go straight out.
		err = m.uncork()
	}
	if err != nil {
		return fail(err)
	}
	// Per-hop accountability credentials (proxysig delegation warrants)
	// ride the same retained secondary connections, still under the
	// key-distribution phase deadline.
	audit, err := r.acct.establishCredentials(secs, r.chain, clock.Of(transport))
	if err != nil {
		return fail(err)
	}
	hw.stop()
	neighbor.wipe() // installed above, or answered outside neighbor-keys mode

	sess := &Session{
		conn:           pconn,
		m:              m,
		transport:      transport,
		acct:           r.acct.kind(),
		audit:          audit,
		resumedPrimary: pconn.ConnectionState().Resumed,
		resumedHops:    resumedHops,
	}
	for _, s := range secs {
		sess.mboxes = append(sess.mboxes, s.summary)
	}
	if !r.clientEnd {
		slices.Reverse(sess.mboxes) // Middleboxes() lists from this endpoint outward
	}
	if r.established != nil {
		r.established(secs)
	}
	return sess, nil
}

// distributeKeys mints this side's per-hop keys, sends each middlebox
// its MBTLSKeyMaterial over the secondary session, and installs the
// endpoint's own adjacent hop (paper Figure 4). secs runs client→server
// and hops[i] is the hop on the client side of secs[i], so middlebox i
// always gets Down hops[i] and Up hops[i+1]; the bridge K(C-S) is the
// end of the slice away from the endpoint, its own hop the near end.
func distributeKeys(pconn *tls12.Conn, secs []secondaryResult, clientEnd bool) error {
	n := len(secs)
	if n == 0 {
		return nil // the endpoint keeps the primary session keys
	}
	sk, err := pconn.ExportSessionKeys()
	if err != nil {
		return err
	}
	own, bridge := 0, n
	if !clientEnd {
		own, bridge = n, 0
	}
	hops := make([]*HopKeys, n+1)
	// Wiping the hops on every exit also clears sk: the bridge hop
	// aliases the exported session-key slices.
	defer func() {
		for _, h := range hops {
			h.Wipe()
		}
	}()
	hops[bridge] = BridgeHopKeys(sk)
	for i := range hops {
		if i == bridge {
			continue
		}
		if hops[i], err = GenerateHopKeys(sk.Suite); err != nil {
			return err
		}
	}

	for i, r := range secs {
		km := &KeyMaterial{Version: tls12.VersionTLS12, Down: *hops[i], Up: *hops[i+1]}
		buf := km.marshal()
		err := r.conn.WriteKeyMaterial(buf)
		secmem.Wipe(buf)
		if err != nil {
			return fmt.Errorf("core: key distribution to %q: %w", r.summary.Name, err)
		}
	}
	return installHop(pconn, hops[own], clientEnd)
}

// installHop makes hop the endpoint's own record protection — the
// client seals client→server, the server the reverse — and wipes it:
// the keys then live only in the installed cipher states. A nil hop
// leaves the primary session keys in place.
func installHop(pconn *tls12.Conn, hop *HopKeys, clientEnd bool) error {
	if hop == nil {
		return nil
	}
	defer hop.Wipe()
	c2s, s2c, err := hop.cipherStates()
	if err != nil {
		return err
	}
	if clientEnd {
		pconn.InstallDataCiphers(s2c, c2s)
	} else {
		pconn.InstallDataCiphers(c2s, s2c)
	}
	return nil
}
