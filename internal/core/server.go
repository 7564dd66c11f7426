package core

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/clock"
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
	r, err := serverRole(cfg, clock.Of(transport))
	if err != nil {
		return nil, err
	}
	return establish(transport, r)
}

// serverRole describes the server end of establish.
func serverRole(cfg *ServerConfig, clk clock.Clock) (*role, error) {
	if cfg == nil || cfg.TLS == nil {
		return nil, errors.New("core: ServerConfig.TLS is required")
	}
	acct, err := newAccountability(cfg.Accountability, cfg.RequireMiddleboxAttestation, cfg.MiddleboxVerifier, cfg.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	tcfg := *cfg.TLS
	tcfg.Clock = clk
	secCfg := secondaryClientConfig(cfg.TLS, cfg.MiddleboxTLS, acct, clk)
	// The secondary handshakes toward middleboxes must not carry the
	// server's SNI or offer tickets.
	secCfg.ServerName = ""
	secCfg.EnableTickets = false

	return &role{
		acct:    acct,
		timeout: cfg.HandshakeTimeout,
		approve: cfg.Approve,
		start: func(rl *tls12.RecordLayer) (*tls12.Conn, error) {
			return tls12.Server(rl, &tcfg), nil
		},
		answer: func(m *mux, sub uint8) secondaryResult {
			rl := tls12.NewRecordLayer(m.subchannel(sub, false))
			if sub == neighborSubchannel {
				// Neighbor-keys mode (§4.2): the last client-side
				// middlebox opens subchannel 0 for a hop handshake in
				// which the server plays its usual server role.
				ncfg := &tls12.Config{
					Certificate:  cfg.TLS.Certificate,
					CipherSuites: cfg.TLS.CipherSuites,
					Stopwatch:    cfg.TLS.Stopwatch,
					Clock:        clk,
				}
				hop, err := runNeighbor(tls12.Server(rl, ncfg), "server")
				return secondaryResult{sub: sub, neighbor: true, hop: hop, err: err}
			}
			if !cfg.AcceptMiddleboxes {
				return secondaryResult{}
			}
			// A server-side middlebox announces itself, then plays the
			// server role against a fresh ClientHello from this endpoint.
			rec, err := rl.ReadRecord()
			if err == nil && rec.Type != tls12.TypeMiddleboxAnnouncement {
				err = fmt.Errorf("core: expected middlebox announcement, got %s", rec.Type)
			}
			if err != nil {
				rl.Release()
				return secondaryResult{sub: sub, err: err}
			}
			return completeSecondary(sub, tls12.Client(rl, secCfg))
		},
		neighborHop: func(_ *mux, pconn *tls12.Conn, secs int, answered secondaryResult) (*HopKeys, bool, error) {
			hello := pconn.ConnectionState().ClientHello
			if hello == nil || hello.MiddleboxSupport == nil || !hello.MiddleboxSupport.NeighborKeys {
				return nil, false, nil
			}
			if secs > 0 {
				return nil, true, errors.New("core: server-side middleboxes are unsupported in neighbor-keys mode")
			}
			// No neighbor handshake (a zero answered) means no client-side
			// middleboxes.
			return answered.hop, true, answered.err
		},
	}, nil
}
