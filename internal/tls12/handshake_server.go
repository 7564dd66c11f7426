package tls12

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/secmem"
)

func (c *Conn) serverHandshake() error {
	cfg := c.config
	if cfg == nil {
		cfg = &Config{}
	}
	if cfg.EnableTickets && cfg.TicketKeys == nil {
		return errNoTicketKeys
	}

	// ClientHello: either already received (middlebox secondary
	// handshake, paper §3.4) or read off the wire.
	helloRaw := c.receivedHelloRaw
	if helloRaw == nil {
		typ, _, raw, _, err := c.readHandshakeMsg(false)
		if err != nil {
			return err
		}
		if typ != TypeClientHello {
			return c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: expected client_hello, got %s", typ))
		}
		helloRaw = raw
	}
	hello, err := ParseClientHello(helloRaw)
	if err != nil {
		return c.fatal(AlertDecodeError, err)
	}
	c.state.ClientHello = hello
	c.clientRandom = hello.Random

	// Suite selection: server preference order.
	var suite uint16
	for _, s := range cfg.cipherSuites() {
		if containsSuite(hello.CipherSuites, s) {
			suite = s
			break
		}
	}
	if suite == 0 {
		return c.fatal(AlertHandshakeFailure, errors.New("tls12: no mutually supported cipher suite"))
	}
	c.state.CipherSuite = suite

	// Ticket resumption attempt. A named middlebox hop reads its
	// ticket from the ClientHello's MiddleboxSupport hop-ticket list
	// (mbTLS chain resumption) and acknowledges it by name; everyone
	// else uses the session_ticket extension (RFC 5077).
	var resumed *sessionState
	var resumedHop string
	if cfg.EnableTickets {
		ticket := hello.SessionTicket
		if cfg.HopTicketName != "" {
			ticket = hello.MiddleboxSupport.HopTicket(cfg.HopTicketName)
		}
		if len(ticket) > 0 {
			if st := openTicket(cfg, ticket); st != nil && containsSuite(hello.CipherSuites, st.suite) {
				resumed = st
				suite = st.suite
				c.state.CipherSuite = suite
				if cfg.HopTicketName != "" {
					resumedHop = cfg.HopTicketName
				}
			}
		}
	}

	// A ticket is promised only when there is a key to seal it under.
	var sealer cipher.AEAD
	if cfg.EnableTickets && hello.HasSessionTicket {
		sealer = ticketSealer(cfg.TicketKeys)
	}
	sh := &ServerHello{
		CipherSuite:    suite,
		TicketExpected: sealer != nil,
		ResumedHop:     resumedHop,
	}
	c.state.ResumedHop = resumedHop
	if _, err := io.ReadFull(rand.Reader, sh.Random[:]); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	c.serverRandom = sh.Random

	ts := newTranscript(suite)
	ts.add(helloRaw)
	shRaw := sh.marshal()
	if err := c.writeHandshakeMsg(shRaw); err != nil {
		return err
	}
	ts.add(shRaw)

	if resumed != nil {
		return c.serverResume(cfg, sh, sealer, resumed, ts)
	}

	if cfg.Certificate == nil || len(cfg.Certificate.Chain) == 0 {
		return c.fatal(AlertInternalError, errNoCertificate)
	}

	// Certificate.
	certMsg := &certificateMsg{chain: cfg.Certificate.Chain}
	certRaw := certMsg.marshal()
	if err := c.writeHandshakeMsg(certRaw); err != nil {
		return err
	}
	ts.add(certRaw)
	// [ServerHello, Certificate] leave now, not behind the signature
	// (and quote) below: the peer starts verifying the chain while we
	// sign, and a client-side middlebox holding the primary ServerHello
	// for ours (paper §3.4) releases it as soon as these are out.
	if err := c.rl.Push(); err != nil {
		return err
	}

	// ServerKeyExchange: ephemeral X25519 (precomputed when the config
	// has a keyshare pool), Ed25519-signed.
	priv, pub, err := cfg.keyShare()
	if err != nil {
		return c.fatal(AlertInternalError, err)
	}
	ske := &serverKeyExchange{publicKey: pub}
	sigInput := make([]byte, 0, 2*randomLen+64)
	sigInput = append(sigInput, c.clientRandom[:]...)
	sigInput = append(sigInput, c.serverRandom[:]...)
	sigInput = append(sigInput, ske.paramsBytes()...)
	if cfg.Certificate.PrivateKey == nil {
		return c.fatal(AlertInternalError, errors.New("tls12: certificate has no private key"))
	}
	ske.signature = ed25519.Sign(cfg.Certificate.PrivateKey, sigInput)
	skeRaw := ske.marshal()
	if err := c.writeHandshakeMsg(skeRaw); err != nil {
		return err
	}
	ts.add(skeRaw)

	// Optional SGXAttestation over the transcript so far (§3.4).
	if hello.RequestAttestation && cfg.Quoter != nil {
		quote, err := cfg.Quoter(AttestationReportData(ts.sum()))
		if err != nil {
			return c.fatal(AlertInternalError, err)
		}
		att := &sgxAttestationMsg{quote: quote}
		attRaw := att.marshal()
		if err := c.writeHandshakeMsg(attRaw); err != nil {
			return err
		}
		ts.add(attRaw)
		c.state.AttestationQuote = append([]byte(nil), quote...)
	}

	// ServerHelloDone.
	shdRaw := handshakeHeader(TypeServerHelloDone, nil)
	if err := c.writeHandshakeMsg(shdRaw); err != nil {
		return err
	}
	ts.add(shdRaw)

	// ClientKeyExchange.
	ckeBody, ckeRaw, err := c.expectHandshakeMsg(TypeClientKeyExchange)
	if err != nil {
		return err
	}
	cke, err := parseClientKeyExchange(ckeBody)
	if err != nil {
		return c.fatal(AlertDecodeError, err)
	}
	ts.add(ckeRaw)
	clientPub, err := ecdh.X25519().NewPublicKey(cke.publicKey)
	if err != nil {
		return c.fatal(AlertIllegalParameter, err)
	}
	preMaster, err := priv.ECDH(clientPub)
	if err != nil {
		return c.fatal(AlertIllegalParameter, err)
	}
	c.setMaster(computeMasterSecret(suite, preMaster, c.clientRandom[:], c.serverRandom[:]))
	secmem.Wipe(preMaster) // only the master secret survives key derivation

	// Client CCS + Finished.
	if err := c.readChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(suite, false, true); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	if err := c.verifyPeerFinished(suite, ts, true); err != nil {
		return err
	}

	// NewSessionTicket, then our CCS + Finished.
	if sh.TicketExpected {
		if err := c.sendNewTicket(cfg, sealer, suite, ts); err != nil {
			return err
		}
	}
	if err := c.writeChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(suite, true, false); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	fin := &finishedMsg{verifyData: finishedVerifyData(c.masterMAC, false, ts.sum())}
	finRaw := fin.marshal()
	if err := c.writeHandshakeMsg(finRaw); err != nil {
		return err
	}
	ts.add(finRaw)
	return nil
}

// serverResume completes an abbreviated handshake from a valid ticket.
func (c *Conn) serverResume(cfg *Config, sh *ServerHello, sealer cipher.AEAD, st *sessionState, ts *transcript) error {
	c.setMaster(append([]byte(nil), st.master...))
	st.wipe() // the conn owns its clone now
	c.state.Resumed = true
	suite := st.suite

	if sh.TicketExpected {
		if err := c.sendNewTicket(cfg, sealer, suite, ts); err != nil {
			return err
		}
	}
	if err := c.writeChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(suite, true, false); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	fin := &finishedMsg{verifyData: finishedVerifyData(c.masterMAC, false, ts.sum())}
	finRaw := fin.marshal()
	if err := c.writeHandshakeMsg(finRaw); err != nil {
		return err
	}
	ts.add(finRaw)

	if err := c.readChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(suite, false, true); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	return c.verifyPeerFinished(suite, ts, true)
}

// sendNewTicket seals the current session into a ticket under sealer
// and sends it.
func (c *Conn) sendNewTicket(cfg *Config, sealer cipher.AEAD, suite uint16, ts *transcript) error {
	state := &sessionState{
		suite: suite,
		// Clone the master so the sealed state owns its copy: the
		// connection's slice lives on (key export, more tickets) while
		// this one is wiped once the ticket is sealed.
		master:    append([]byte(nil), c.masterSecret...),
		createdAt: uint64(clock.Or(cfg.Clock).Now().Unix()),
	}
	ticket, err := sealTicket(sealer, state)
	state.wipe()
	if err != nil {
		return c.fatal(AlertInternalError, err)
	}
	nst := &newSessionTicketMsg{
		lifetimeHint: uint32(ticketLifetime.Seconds()),
		ticket:       ticket,
	}
	nstRaw := nst.marshal()
	if err := c.writeHandshakeMsg(nstRaw); err != nil {
		return err
	}
	ts.add(nstRaw)
	return nil
}
