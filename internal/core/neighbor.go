package core

import (
	"fmt"

	"repro/internal/tls12"
)

// Neighbor-negotiated hop keys — the alternative key-establishment mode
// the paper sketches to defeat middlebox state poisoning (§4.2): "alter
// the handshake protocol so that middleboxes establish keys with their
// neighbors rather than endpoints generating and distributing session
// keys; this means each party only knows the key(s) for the hop(s)
// adjacent to it. The downside is the client has lost the ability to
// directly [control] the full path."
//
// In this implementation the mode is selected by the client
// (ClientConfig.NeighborKeys), signaled in the MiddleboxSupport
// extension, and works as follows:
//
//   - Discovery, secondary handshakes, attestation, and approval are
//     unchanged — identity still flows endpoint↔middlebox.
//   - Instead of MBTLSKeyMaterial distribution, each adjacent pair on
//     the path runs a TLS handshake of its own over the reserved
//     subchannel 0, which relays treat as hop-local (never forwarded).
//     The downstream party plays the client role; the upstream party
//     authenticates with its certificate.
//   - Each hop's data-plane keys are that hop session's record keys, so
//     no party ever holds a non-adjacent hop's keys. In particular the
//     client cannot forge "server responses" toward its own
//     middleboxes — the poisoning attack the mode exists to stop
//     (verified in the adversary tests).
//
// Scope: client-side middleboxes with an mbTLS server. A legacy server
// cannot run a neighbor handshake (its hop would need the endpoint-
// known primary key, reintroducing the exposure), and server-side
// middleboxes are rejected in this mode.
const neighborSubchannel uint8 = 0

// runNeighbor completes one side of a neighbor hop handshake and
// converts the session into hop keys. The session's client role is the
// hop's downstream party, so its client-write direction is the hop's
// client→server direction. Either way out, the session is retired: it
// exists only to produce these keys.
func runNeighbor(conn *tls12.Conn, side string) (*HopKeys, error) {
	defer retire(conn)
	if err := conn.Handshake(); err != nil {
		return nil, fmt.Errorf("core: neighbor handshake (%s role): %w", side, err)
	}
	return hopFromSession(conn)
}

// hopFromSession exports a completed session's record keys as a hop's.
func hopFromSession(conn *tls12.Conn) (*HopKeys, error) {
	sk, err := conn.ExportSessionKeys()
	if err != nil {
		return nil, err
	}
	return BridgeHopKeys(sk), nil
}
