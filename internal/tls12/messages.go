package tls12

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// handshakeHeader frames a handshake message body with its type and
// 24-bit length.
func handshakeHeader(typ HandshakeType, body []byte) []byte {
	b := wire.NewBuilder(make([]byte, 0, 4+len(body)))
	b.AddUint8(uint8(typ))
	b.AddUint24(uint32(len(body)))
	b.AddBytes(body)
	return b.Bytes()
}

// maxHandshakeMsg bounds the body length a handshake header may
// announce (crypto/tls's maxHandshake). The 24-bit field allows 16 MiB,
// and a reassembler that trusts it buffers that much for any peer that
// asks, before anything is authenticated. The largest messages this
// stack produces — a certificate chain, an attestation carrying a quote
// of under 16 KiB — fit several times over.
const maxHandshakeMsg = 65536

// SplitHandshakeMsg is the one step of handshake-message reassembly:
// given the handshake bytes buffered so far, it returns the first
// complete message, header included, or nil when more bytes are needed.
// A header announcing more than maxHandshakeMsg is a decode_error,
// reported as soon as its four bytes are in, so no caller buffers
// toward it.
func SplitHandshakeMsg(buf []byte) ([]byte, error) {
	if len(buf) < 4 {
		return nil, nil
	}
	n := int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
	if n > maxHandshakeMsg {
		return nil, fmt.Errorf("tls12: handshake message of %d bytes exceeds the %d limit: %w",
			n, maxHandshakeMsg, &AlertError{Description: AlertDecodeError})
	}
	if len(buf) < 4+n {
		return nil, nil
	}
	return buf[:4+n], nil
}

// splitHandshake splits a marshaled handshake message into its type and
// body, verifying the length.
func splitHandshake(msg []byte) (HandshakeType, []byte, error) {
	p := wire.NewParser(msg)
	var typ uint8
	var body []byte
	if !p.ReadUint8(&typ) || !p.ReadUint24Prefixed(&body) || !p.Empty() {
		return 0, nil, errors.New("tls12: malformed handshake message")
	}
	return HandshakeType(typ), body, nil
}

// randomLen is the length of the hello random values.
const randomLen = 32

// MiddleboxSupport is the mbTLS MiddleboxSupport ClientHello extension
// (paper Appendix A.2). Its presence invites on-path middleboxes to
// announce themselves and join the session (paper §3.4).
type MiddleboxSupport struct {
	// OptimisticHellos carries one or more ClientHellos that discovered
	// middleboxes may respond to with their own ServerHello, letting
	// the secondary handshake piggyback on the primary one (P7).
	OptimisticHellos [][]byte
	// Middleboxes lists middleboxes known to the client a priori, as
	// dial addresses.
	Middleboxes []string
	// NeighborKeys selects the alternative key-establishment mode the
	// paper sketches as the state-poisoning mitigation (§4.2): each
	// hop's keys are negotiated between the hop's two parties rather
	// than generated and distributed by the endpoint, so "each party
	// only knows the key(s) for the hop(s) adjacent to it". Carried as
	// a trailing flags octet — an extension beyond the Appendix A
	// format.
	NeighborKeys bool
	// HopTickets carries per-middlebox resumption tickets for chain
	// resumption: client-side middleboxes reuse the primary
	// ClientHello for their secondary handshakes, so the only place a
	// reconnecting client can offer each hop its ticket is inside this
	// extension. Carried after the flags octet — a further extension
	// beyond the Appendix A format; parsers that stop at the flags
	// octet ignore it.
	HopTickets []HopTicket
	// ProxySig selects the mdTLS-style proxy-signature accountability
	// mode for the secondary handshakes this hello starts: instead of
	// per-hop enclave attestation, the endpoint delegates to each
	// middlebox with a signed warrant and collects signed evidence of
	// the middlebox's modifications at close. Carried as a flags-octet
	// bit, so the attestation default adds no bytes to the wire.
	ProxySig bool
}

// HopTicket is one named middlebox's resumption ticket as carried in
// the MiddleboxSupport extension. Name is the middlebox identity the
// ticket was issued by (its certificate CN on the original session);
// Ticket is opaque to everyone but that middlebox.
type HopTicket struct {
	Name   string
	Ticket []byte
}

// Flag bits of the trailing MiddleboxSupport flags octet.
const (
	msFlagNeighborKeys = 0x01
	msFlagProxySig     = 0x02
)

func (m *MiddleboxSupport) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint8(uint8(len(m.OptimisticHellos)))
	for _, h := range m.OptimisticHellos {
		b.AddUint16(uint16(len(h)))
	}
	for _, h := range m.OptimisticHellos {
		b.AddBytes(h)
	}
	b.AddUint8(uint8(len(m.Middleboxes)))
	for _, mb := range m.Middleboxes {
		b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes([]byte(mb)) })
	}
	var flags uint8
	if m.NeighborKeys {
		flags |= msFlagNeighborKeys
	}
	if m.ProxySig {
		flags |= msFlagProxySig
	}
	b.AddUint8(flags)
	if len(m.HopTickets) > 0 {
		b.AddUint8(uint8(len(m.HopTickets)))
		for _, ht := range m.HopTickets {
			b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes([]byte(ht.Name)) })
			b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(ht.Ticket) })
		}
	}
	return b.Bytes()
}

func parseMiddleboxSupport(data []byte) (*MiddleboxSupport, error) {
	p := wire.NewParser(data)
	var m MiddleboxSupport
	var numHellos uint8
	if !p.ReadUint8(&numHellos) {
		return nil, errors.New("tls12: malformed MiddleboxSupport extension")
	}
	lens := make([]uint16, numHellos)
	for i := range lens {
		if !p.ReadUint16(&lens[i]) {
			return nil, errors.New("tls12: malformed MiddleboxSupport extension")
		}
	}
	for _, n := range lens {
		var h []byte
		if !p.ReadBytes(&h, int(n)) {
			return nil, errors.New("tls12: malformed MiddleboxSupport extension")
		}
		m.OptimisticHellos = append(m.OptimisticHellos, append([]byte(nil), h...))
	}
	var numMboxes uint8
	if !p.ReadUint8(&numMboxes) {
		return nil, errors.New("tls12: malformed MiddleboxSupport extension")
	}
	for i := 0; i < int(numMboxes); i++ {
		var mb []byte
		if !p.ReadUint16Prefixed(&mb) {
			return nil, errors.New("tls12: malformed MiddleboxSupport extension")
		}
		m.Middleboxes = append(m.Middleboxes, string(mb))
	}
	// Trailing flags octet (absent in Appendix A originals).
	if p.Len() > 0 {
		var flags uint8
		if !p.ReadUint8(&flags) {
			return nil, errors.New("tls12: malformed MiddleboxSupport extension")
		}
		m.NeighborKeys = flags&msFlagNeighborKeys != 0
		m.ProxySig = flags&msFlagProxySig != 0
	}
	// Hop tickets (absent unless the client resumes a chain).
	if p.Len() > 0 {
		var numTickets uint8
		if !p.ReadUint8(&numTickets) {
			return nil, errors.New("tls12: malformed MiddleboxSupport extension")
		}
		for i := 0; i < int(numTickets); i++ {
			var name, ticket []byte
			if !p.ReadUint8Prefixed(&name) || !p.ReadUint16Prefixed(&ticket) {
				return nil, errors.New("tls12: malformed MiddleboxSupport extension")
			}
			m.HopTickets = append(m.HopTickets, HopTicket{
				Name:   string(name),
				Ticket: append([]byte(nil), ticket...),
			})
		}
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return &m, nil
}

// HopTicket returns the hop ticket offered for the named middlebox, or
// nil when none was offered.
func (m *MiddleboxSupport) HopTicket(name string) []byte {
	if m == nil {
		return nil
	}
	for _, ht := range m.HopTickets {
		if ht.Name == name {
			return ht.Ticket
		}
	}
	return nil
}

// ClientHello is the parsed form of a ClientHello message.
type ClientHello struct {
	Random             [randomLen]byte
	SessionID          []byte
	CipherSuites       []uint16
	ServerName         string
	SessionTicket      []byte // nil: no ext; empty: ext present, no ticket
	HasSessionTicket   bool
	RequestAttestation bool
	MiddleboxSupport   *MiddleboxSupport
}

func (m *ClientHello) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint16(VersionTLS12)
	b.AddBytes(m.Random[:])
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes(m.SessionID) })
	b.AddUint16Prefixed(func(b *wire.Builder) {
		for _, s := range m.CipherSuites {
			b.AddUint16(s)
		}
	})
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddUint8(0) }) // null compression

	b.AddUint16Prefixed(func(b *wire.Builder) {
		if m.ServerName != "" {
			b.AddUint16(extServerName)
			b.AddUint16Prefixed(func(b *wire.Builder) {
				// server_name_list with one host_name entry.
				b.AddUint16Prefixed(func(b *wire.Builder) {
					b.AddUint8(0) // name_type host_name
					b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes([]byte(m.ServerName)) })
				})
			})
		}
		if m.HasSessionTicket {
			b.AddUint16(extSessionTicket)
			b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(m.SessionTicket) })
		}
		if m.RequestAttestation {
			b.AddUint16(extAttestationRequest)
			b.AddUint16Prefixed(func(b *wire.Builder) {})
		}
		if m.MiddleboxSupport != nil {
			b.AddUint16(ExtMiddleboxSupport)
			b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(m.MiddleboxSupport.marshal()) })
		}
		b.AddUint16(extRenegotiationInfo)
		b.AddUint16Prefixed(func(b *wire.Builder) { b.AddUint8(0) })
	})
	return handshakeHeader(TypeClientHello, b.Bytes())
}

// ParseClientHello parses the body of a ClientHello handshake message
// (msg must include the 4-byte handshake header). It is exported because
// middleboxes sniff ClientHellos for the MiddleboxSupport extension.
func ParseClientHello(msg []byte) (*ClientHello, error) {
	typ, body, err := splitHandshake(msg)
	if err != nil {
		return nil, err
	}
	if typ != TypeClientHello {
		return nil, fmt.Errorf("tls12: expected client_hello, got %s", typ)
	}
	p := wire.NewParser(body)
	var m ClientHello
	var vers uint16
	var sessionID, suites, compression []byte
	if !p.ReadUint16(&vers) || !p.CopyBytes(m.Random[:]) ||
		!p.ReadUint8Prefixed(&sessionID) ||
		!p.ReadUint16Prefixed(&suites) ||
		!p.ReadUint8Prefixed(&compression) {
		return nil, errors.New("tls12: malformed client_hello")
	}
	if vers != VersionTLS12 {
		return nil, &AlertError{Description: AlertProtocolVersion}
	}
	m.SessionID = append([]byte(nil), sessionID...)
	if len(suites)%2 != 0 {
		return nil, errors.New("tls12: malformed cipher suite list")
	}
	for i := 0; i+1 < len(suites); i += 2 {
		m.CipherSuites = append(m.CipherSuites, uint16(suites[i])<<8|uint16(suites[i+1]))
	}
	if p.Len() == 0 {
		return &m, nil // extensions are optional
	}
	var exts *wire.Parser
	if !p.ReadParser(2, &exts) || !p.Empty() {
		return nil, errors.New("tls12: malformed client_hello extensions")
	}
	for !exts.Empty() {
		var extType uint16
		var extData []byte
		if !exts.ReadUint16(&extType) || !exts.ReadUint16Prefixed(&extData) {
			return nil, errors.New("tls12: malformed extension")
		}
		switch extType {
		case extServerName:
			ep := wire.NewParser(extData)
			var list *wire.Parser
			if !ep.ReadParser(2, &list) {
				return nil, errors.New("tls12: malformed server_name extension")
			}
			for !list.Empty() {
				var nameType uint8
				var name []byte
				if !list.ReadUint8(&nameType) || !list.ReadUint16Prefixed(&name) {
					return nil, errors.New("tls12: malformed server_name entry")
				}
				if nameType == 0 {
					m.ServerName = string(name)
				}
			}
		case extSessionTicket:
			m.HasSessionTicket = true
			m.SessionTicket = append([]byte(nil), extData...)
		case extAttestationRequest:
			m.RequestAttestation = true
		case ExtMiddleboxSupport:
			ms, err := parseMiddleboxSupport(extData)
			if err != nil {
				return nil, err
			}
			m.MiddleboxSupport = ms
		}
	}
	return &m, nil
}

// ServerHello is the parsed form of a ServerHello message.
type ServerHello struct {
	Random         [randomLen]byte
	SessionID      []byte
	CipherSuite    uint16
	TicketExpected bool // server acknowledged the session_ticket extension
	// ResumedHop, when non-empty, names the middlebox hop ticket this
	// server is resuming from (mbTLS chain resumption).
	ResumedHop string
}

func (m *ServerHello) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint16(VersionTLS12)
	b.AddBytes(m.Random[:])
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes(m.SessionID) })
	b.AddUint16(m.CipherSuite)
	b.AddUint8(0) // null compression
	b.AddUint16Prefixed(func(b *wire.Builder) {
		if m.TicketExpected {
			b.AddUint16(extSessionTicket)
			b.AddUint16Prefixed(func(b *wire.Builder) {})
		}
		if m.ResumedHop != "" {
			b.AddUint16(extResumedHop)
			b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes([]byte(m.ResumedHop)) })
		}
		b.AddUint16(extRenegotiationInfo)
		b.AddUint16Prefixed(func(b *wire.Builder) { b.AddUint8(0) })
	})
	return handshakeHeader(TypeServerHello, b.Bytes())
}

func parseServerHello(body []byte) (*ServerHello, error) {
	p := wire.NewParser(body)
	var m ServerHello
	var vers uint16
	var sessionID []byte
	var compression uint8
	if !p.ReadUint16(&vers) || !p.CopyBytes(m.Random[:]) ||
		!p.ReadUint8Prefixed(&sessionID) ||
		!p.ReadUint16(&m.CipherSuite) ||
		!p.ReadUint8(&compression) {
		return nil, errors.New("tls12: malformed server_hello")
	}
	if vers != VersionTLS12 {
		return nil, &AlertError{Description: AlertProtocolVersion}
	}
	m.SessionID = append([]byte(nil), sessionID...)
	if p.Len() > 0 {
		var exts *wire.Parser
		if !p.ReadParser(2, &exts) || !p.Empty() {
			return nil, errors.New("tls12: malformed server_hello extensions")
		}
		for !exts.Empty() {
			var extType uint16
			var extData []byte
			if !exts.ReadUint16(&extType) || !exts.ReadUint16Prefixed(&extData) {
				return nil, errors.New("tls12: malformed extension")
			}
			switch extType {
			case extSessionTicket:
				m.TicketExpected = true
			case extResumedHop:
				m.ResumedHop = string(extData)
			}
		}
	}
	return &m, nil
}

// certificateMsg carries the sender's DER certificate chain.
type certificateMsg struct {
	chain [][]byte
}

func (m *certificateMsg) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint24Prefixed(func(b *wire.Builder) {
		for _, cert := range m.chain {
			b.AddUint24Prefixed(func(b *wire.Builder) { b.AddBytes(cert) })
		}
	})
	return handshakeHeader(TypeCertificate, b.Bytes())
}

func parseCertificateMsg(body []byte) (*certificateMsg, error) {
	p := wire.NewParser(body)
	var list *wire.Parser
	if !p.ReadParser(3, &list) || !p.Empty() {
		return nil, errors.New("tls12: malformed certificate message")
	}
	var m certificateMsg
	for !list.Empty() {
		var cert []byte
		if !list.ReadUint24Prefixed(&cert) {
			return nil, errors.New("tls12: malformed certificate entry")
		}
		m.chain = append(m.chain, append([]byte(nil), cert...))
	}
	return &m, nil
}

// serverKeyExchange carries signed ephemeral ECDHE parameters
// (RFC 8422 §5.4): named-curve X25519 plus an Ed25519 signature over
// client_random || server_random || params.
type serverKeyExchange struct {
	publicKey []byte // X25519 public key
	signature []byte
}

// paramsBytes returns the ServerECDHParams portion that the signature
// covers.
func (m *serverKeyExchange) paramsBytes() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint8(curveTypeNamed)
	b.AddUint16(curveX25519)
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes(m.publicKey) })
	return b.Bytes()
}

func (m *serverKeyExchange) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddBytes(m.paramsBytes())
	b.AddUint16(sigSchemeEd25519)
	b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(m.signature) })
	return handshakeHeader(TypeServerKeyExchange, b.Bytes())
}

func parseServerKeyExchange(body []byte) (*serverKeyExchange, error) {
	p := wire.NewParser(body)
	var curveType uint8
	var curve uint16
	var m serverKeyExchange
	var scheme uint16
	if !p.ReadUint8(&curveType) || !p.ReadUint16(&curve) ||
		!p.ReadUint8Prefixed(&m.publicKey) ||
		!p.ReadUint16(&scheme) || !p.ReadUint16Prefixed(&m.signature) || !p.Empty() {
		return nil, errors.New("tls12: malformed server_key_exchange")
	}
	if curveType != curveTypeNamed || curve != curveX25519 {
		return nil, &AlertError{Description: AlertIllegalParameter}
	}
	if scheme != sigSchemeEd25519 {
		return nil, &AlertError{Description: AlertIllegalParameter}
	}
	m.publicKey = append([]byte(nil), m.publicKey...)
	m.signature = append([]byte(nil), m.signature...)
	return &m, nil
}

// clientKeyExchange carries the client's ephemeral X25519 public key.
type clientKeyExchange struct {
	publicKey []byte
}

func (m *clientKeyExchange) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes(m.publicKey) })
	return handshakeHeader(TypeClientKeyExchange, b.Bytes())
}

func parseClientKeyExchange(body []byte) (*clientKeyExchange, error) {
	p := wire.NewParser(body)
	var m clientKeyExchange
	if !p.ReadUint8Prefixed(&m.publicKey) || !p.Empty() {
		return nil, errors.New("tls12: malformed client_key_exchange")
	}
	m.publicKey = append([]byte(nil), m.publicKey...)
	return &m, nil
}

// finishedMsg carries the 12-byte PRF verify_data.
type finishedMsg struct {
	verifyData []byte
}

func (m *finishedMsg) marshal() []byte {
	return handshakeHeader(TypeFinished, m.verifyData)
}

func parseFinished(body []byte) (*finishedMsg, error) {
	if len(body) != finishedVerifyLen {
		return nil, errors.New("tls12: malformed finished message")
	}
	return &finishedMsg{verifyData: append([]byte(nil), body...)}, nil
}

// newSessionTicketMsg carries a session ticket (RFC 5077).
type newSessionTicketMsg struct {
	lifetimeHint uint32
	ticket       []byte
}

func (m *newSessionTicketMsg) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint32(m.lifetimeHint)
	b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(m.ticket) })
	return handshakeHeader(TypeNewSessionTicket, b.Bytes())
}

func parseNewSessionTicket(body []byte) (*newSessionTicketMsg, error) {
	p := wire.NewParser(body)
	var m newSessionTicketMsg
	if !p.ReadUint32(&m.lifetimeHint) || !p.ReadUint16Prefixed(&m.ticket) || !p.Empty() {
		return nil, errors.New("tls12: malformed new_session_ticket")
	}
	m.ticket = append([]byte(nil), m.ticket...)
	return &m, nil
}

// sgxAttestationMsg carries an SGX quote (paper Appendix A.2):
// opaque sgx_quote<0..2^14-1>.
type sgxAttestationMsg struct {
	quote []byte
}

func (m *sgxAttestationMsg) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(m.quote) })
	return handshakeHeader(TypeSGXAttestation, b.Bytes())
}

func parseSGXAttestation(body []byte) (*sgxAttestationMsg, error) {
	p := wire.NewParser(body)
	var m sgxAttestationMsg
	if !p.ReadUint16Prefixed(&m.quote) || !p.Empty() {
		return nil, errors.New("tls12: malformed sgx_attestation")
	}
	if len(m.quote) >= 1<<14 {
		return nil, errors.New("tls12: oversized sgx quote")
	}
	m.quote = append([]byte(nil), m.quote...)
	return &m, nil
}
