package core

import (
	"repro/internal/enclave"
	"repro/internal/secmem"
	"repro/internal/tls12"
)

// ChainHop is one middlebox's cached resumption state inside a
// ChainTicket: the opaque ticket the middlebox issued, the master
// secret that redeems it, and the identity facts the client verified
// on the original session. A resumed secondary handshake carries no
// certificates or attestation, so these cached facts are what the
// approval checks (RequireMiddleboxAttestation, Approve) see on the
// resumed chain — possession of the ticket's master secret is what
// proves the resuming party is the same middlebox that was verified
// before.
type ChainHop struct {
	// Name is the middlebox certificate's common name, the key the
	// resuming ServerHello echoes back.
	Name string
	// Ticket is the STEK-sealed ticket, opaque to everyone but the
	// issuing middlebox.
	Ticket []byte
	// CipherSuite is the original secondary session's suite.
	CipherSuite uint16
	// MasterSecret redeems the ticket.
	MasterSecret []byte
	// Attested and Measurement cache the original session's verified
	// attestation facts.
	Attested    bool
	Measurement enclave.Measurement
	// LeafPub caches the middlebox's Ed25519 certificate public key
	// from the original session. Resumed secondary handshakes carry no
	// certificates, so this is what the proxysig accountability mode
	// addresses delegations to (and verifies evidence against) on a
	// resumed hop.
	LeafPub []byte
}

// Wipe zeroizes the hop's master secret.
func (h *ChainHop) Wipe() {
	if h == nil {
		return
	}
	secmem.Wipe(h.MasterSecret)
	h.MasterSecret = nil
}

// ChainTicket is a whole session chain's resumption state: the primary
// (end-to-end) session ticket plus one hop ticket per client-side
// middlebox, in path order from the client outward. A reconnecting
// client that presents one resumes every subchannel it has a ticket
// for in a single abbreviated round — no ECDHE, signatures, chain
// verification, or quote verification on the resumed hops. Hops
// whose tickets have gone stale (STEK rotation, middlebox restart)
// fall back to full secondary handshakes individually; the chain
// still comes up.
//
// Server-side middleboxes are not part of a chain ticket: they are
// discovered by anonymous announcements and handshake against the
// server endpoint, so the client has nothing to cache for them.
type ChainTicket struct {
	// Primary resumes the end-to-end session (RFC 5077); nil when the
	// origin server issued no ticket.
	Primary *tls12.SessionTicket
	// Hops holds the per-middlebox resumption state.
	Hops []ChainHop
}

// Hop returns the named hop's cached state, or nil.
func (ct *ChainTicket) Hop(name string) *ChainHop {
	if ct == nil {
		return nil
	}
	for i := range ct.Hops {
		if ct.Hops[i].Name == name {
			return &ct.Hops[i]
		}
	}
	return nil
}

// redeemable renders the chain's usable hop tickets twice: offer is the
// wire form carried inside the ClientHello's MiddleboxSupport
// extension, byName the resumption map a secondary handshake consults
// when a ServerHello names a resumed hop. The session tickets alias the
// hops' slices; wiping either wipes both.
func (ct *ChainTicket) redeemable() (offer []tls12.HopTicket, byName map[string]*tls12.SessionTicket) {
	if ct == nil {
		return nil, nil
	}
	for i := range ct.Hops {
		h := &ct.Hops[i]
		if len(h.Ticket) == 0 || len(h.MasterSecret) == 0 {
			continue
		}
		if byName == nil {
			byName = make(map[string]*tls12.SessionTicket, len(ct.Hops))
		}
		offer = append(offer, tls12.HopTicket{Name: h.Name, Ticket: h.Ticket})
		byName[h.Name] = &tls12.SessionTicket{Ticket: h.Ticket, CipherSuite: h.CipherSuite, MasterSecret: h.MasterSecret}
	}
	return offer, byName
}

// Wipe zeroizes every master secret in the chain ticket. A client
// wipes a chain ticket it will not redeem again.
func (ct *ChainTicket) Wipe() {
	if ct == nil {
		return
	}
	ct.Primary.Wipe()
	for i := range ct.Hops {
		ct.Hops[i].Wipe()
	}
}
