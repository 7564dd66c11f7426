package core

import (
	"errors"
	"net"

	"repro/internal/clock"
	"repro/internal/tls12"
)

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
	r, err := clientRole(cfg, clock.Of(transport))
	if err != nil {
		return nil, err
	}
	return establish(transport, r)
}

// clientRole describes the client end of establish on the transport's
// clock: it frames and writes the ClientHello itself, because the
// primary and every client-side secondary handshake share those bytes.
func clientRole(cfg *ClientConfig, clk clock.Clock) (*role, error) {
	if cfg == nil || cfg.TLS == nil {
		return nil, errors.New("core: ClientConfig.TLS is required")
	}
	if cfg.NeighborKeys && cfg.Accountability == AccountProxySig {
		return nil, errors.New("core: neighbor-keys mode does not support proxysig accountability")
	}
	acct, err := newAccountability(cfg.Accountability, cfg.RequireMiddleboxAttestation, cfg.MiddleboxVerifier, cfg.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	tcfg := *cfg.TLS
	tcfg.Clock = clk
	ct := cfg.ChainTicket
	if ct != nil && tcfg.SessionTicket == nil {
		tcfg.SessionTicket = ct.Primary
	}
	offeredHops, hopTickets := ct.redeemable()
	tcfg.MiddleboxSupport = &tls12.MiddleboxSupport{
		Middleboxes:  cfg.KnownMiddleboxes,
		NeighborKeys: cfg.NeighborKeys,
		HopTickets:   offeredHops,
	}
	acct.annotatePrimary(&tcfg)

	// Chain-ticket collection: capture the primary's NewSessionTicket
	// here and each hop's on its secondary (answer), then assemble them
	// in path order once the chain is approved.
	var primaryTicket *tls12.SessionTicket
	collect := cfg.OnNewChainTicket != nil
	if collect {
		tcfg.EnableTickets = true
		userOnNew := tcfg.OnNewTicket
		tcfg.OnNewTicket = func(st *tls12.SessionTicket) {
			primaryTicket = st
			if userOnNew != nil {
				userOnNew(st)
			}
		}
	}

	// The optimistic hello of the MiddleboxSupport extension is the
	// primary ClientHello itself, serving double duty (paper §3.4).
	hello, helloRaw, err := tls12.NewClientHello(&tcfg)
	if err != nil {
		return nil, err
	}
	secCfg := secondaryClientConfig(cfg.TLS, cfg.MiddleboxTLS, acct, clk)
	secCfg.HopTickets = hopTickets

	r := &role{
		acct:      acct,
		timeout:   cfg.HandshakeTimeout,
		approve:   cfg.Approve,
		clientEnd: true,
		chain:     ct,
		start: func(rl *tls12.RecordLayer) (*tls12.Conn, error) {
			// The hello waits for the peer's reply, so nothing could join
			// it in the cork: it leaves now.
			if err := rl.BufferRecord(tls12.TypeHandshake, helloRaw); err != nil {
				return nil, err
			}
			if err := rl.Push(); err != nil {
				return nil, err
			}
			return tls12.ClientWithSentHello(rl, &tcfg, hello, helloRaw), nil
		},
		// The discovered middlebox plays the server role against the
		// (already sent) primary ClientHello.
		answer: func(m *mux, sub uint8) secondaryResult {
			scfg := secCfg
			var ticket *tls12.SessionTicket
			if collect {
				c := *secCfg
				c.EnableTickets = true
				c.OnNewTicket = func(st *tls12.SessionTicket) { ticket = st }
				scfg = &c
			}
			res := completeSecondary(sub, tls12.ClientWithSentHello(tls12.NewRecordLayer(m.subchannel(sub, false)), scfg, hello, helloRaw))
			res.ticket = ticket
			return res
		},
		// The client opens the neighbor handshake with its first
		// middlebox over subchannel 0; with no middleboxes there is none.
		neighborHop: func(m *mux, _ *tls12.Conn, secs int, _ secondaryResult) (*HopKeys, bool, error) {
			if !cfg.NeighborKeys || secs == 0 {
				return nil, cfg.NeighborKeys, nil
			}
			ncfg := *secCfg
			ncfg.RequestAttestation = false // identity was verified on the secondary session
			hop, err := runNeighbor(tls12.Client(tls12.NewRecordLayer(m.subchannel(neighborSubchannel, false)), &ncfg), "client")
			return hop, true, err
		},
	}
	if collect {
		r.established = func(secs []secondaryResult) {
			nct := &ChainTicket{Primary: primaryTicket}
			for _, s := range secs {
				if s.ticket == nil {
					continue
				}
				nct.Hops = append(nct.Hops, ChainHop{
					Name:         s.summary.Name,
					Ticket:       s.ticket.Ticket,
					CipherSuite:  s.ticket.CipherSuite,
					MasterSecret: s.ticket.MasterSecret,
					Attested:     s.summary.Attested,
					Measurement:  s.summary.Measurement,
					LeafPub:      hopLeafPub(s.summary, ct),
				})
			}
			if nct.Primary != nil || len(nct.Hops) > 0 {
				cfg.OnNewChainTicket(nct)
			}
		}
	}
	return r, nil
}
