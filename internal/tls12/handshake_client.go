package tls12

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/secmem"
)

// NewClientHello builds and marshals a ClientHello from the config.
// mbTLS clients call this directly so they can write the hello
// themselves (with the MiddleboxSupport extension attached) and reuse
// the bytes across the primary and secondary handshakes.
func NewClientHello(cfg *Config) (*ClientHello, []byte, error) {
	h := &ClientHello{
		CipherSuites:     cfg.cipherSuites(),
		ServerName:       cfg.ServerName,
		MiddleboxSupport: cfg.MiddleboxSupport,
	}
	if _, err := io.ReadFull(rand.Reader, h.Random[:]); err != nil {
		return nil, nil, err
	}
	if cfg.EnableTickets || cfg.SessionTicket != nil {
		h.HasSessionTicket = true
		if cfg.SessionTicket != nil {
			h.SessionTicket = cfg.SessionTicket.Ticket
		}
	}
	if cfg.RequestAttestation || cfg.OfferAttestation {
		h.RequestAttestation = true
	}
	return h, h.marshal(), nil
}

func (c *Conn) clientHandshake() error {
	cfg := c.config
	if cfg == nil {
		cfg = &Config{}
	}

	hello := c.pendingHello
	helloRaw := c.pendingHelloRaw
	if hello == nil {
		var err error
		hello, helloRaw, err = NewClientHello(cfg)
		if err != nil {
			return c.fatal(AlertInternalError, err)
		}
		if err := c.writeHandshakeMsg(helloRaw); err != nil {
			return err
		}
	}
	c.clientRandom = hello.Random

	shBody, shRaw, err := c.expectHandshakeMsg(TypeServerHello)
	if err != nil {
		return err
	}
	sh, err := parseServerHello(shBody)
	if err != nil {
		return c.fatal(AlertDecodeError, err)
	}
	if !cfg.supportsSuite(sh.CipherSuite) || !containsSuite(hello.CipherSuites, sh.CipherSuite) {
		return c.fatal(AlertIllegalParameter, fmt.Errorf("tls12: server chose unoffered suite 0x%04X", sh.CipherSuite))
	}
	c.serverRandom = sh.Random
	c.state.CipherSuite = sh.CipherSuite

	ts := newTranscript(sh.CipherSuite)
	ts.add(helloRaw)
	ts.add(shRaw)

	// Resumption state for this handshake: a named middlebox hop
	// acknowledges its hop ticket explicitly in the ServerHello (mbTLS
	// chain resumption); the primary server signals RFC 5077
	// resumption implicitly by jumping straight to
	// [NewSessionTicket +] ChangeCipherSpec.
	var resumeTicket *SessionTicket
	if sh.ResumedHop != "" {
		resumeTicket = cfg.HopTickets[sh.ResumedHop]
		if resumeTicket == nil || hello.MiddleboxSupport.HopTicket(sh.ResumedHop) == nil {
			return c.fatal(AlertIllegalParameter, fmt.Errorf("tls12: server resumed unoffered hop %q", sh.ResumedHop))
		}
	} else if len(hello.SessionTicket) > 0 && cfg.SessionTicket != nil {
		resumeTicket = cfg.SessionTicket
	}
	typ, body, raw, ccs, err := c.readHandshakeMsg(resumeTicket != nil)
	if err != nil {
		return err
	}
	if resumeTicket != nil && (ccs || typ == TypeNewSessionTicket) {
		if resumeTicket.CipherSuite != sh.CipherSuite {
			return c.fatal(AlertIllegalParameter, errors.New("tls12: resumed session changed cipher suite"))
		}
		c.state.ResumedHop = sh.ResumedHop
		return c.clientResume(cfg, resumeTicket, sh, ts, typ, body, raw, ccs)
	}
	if ccs {
		return c.fatal(AlertUnexpectedMessage, errUnexpectedCCS)
	}

	// Full handshake: Certificate.
	if typ != TypeCertificate {
		return c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: expected certificate, got %s", typ))
	}
	certMsg, err := parseCertificateMsg(body)
	if err != nil {
		return c.fatal(AlertDecodeError, err)
	}
	ts.add(raw)
	chain, serverPub, err := c.verifyServerChain(cfg, certMsg.chain)
	if err != nil {
		return err
	}
	c.state.PeerCertificates = chain

	// ServerKeyExchange.
	skeBody, skeRaw, err := c.expectHandshakeMsg(TypeServerKeyExchange)
	if err != nil {
		return err
	}
	ske, err := parseServerKeyExchange(skeBody)
	if err != nil {
		return c.fatal(AlertDecodeError, err)
	}
	sigInput := make([]byte, 0, 2*randomLen+len(skeBody))
	sigInput = append(sigInput, c.clientRandom[:]...)
	sigInput = append(sigInput, c.serverRandom[:]...)
	sigInput = append(sigInput, ske.paramsBytes()...)
	if !ed25519.Verify(serverPub, sigInput, ske.signature) {
		return c.fatal(AlertDecryptError, errors.New("tls12: invalid server_key_exchange signature"))
	}
	ts.add(skeRaw)

	// Optional SGXAttestation, then ServerHelloDone. The report data
	// binds the transcript up to and including ServerKeyExchange, so a
	// quote replayed from another handshake cannot verify (§3.4).
	attestPoint := AttestationReportData(ts.sum())
	typ, body, raw, _, err = c.readHandshakeMsg(false)
	if err != nil {
		return err
	}
	if typ == TypeSGXAttestation {
		att, err := parseSGXAttestation(body)
		if err != nil {
			return c.fatal(AlertDecodeError, err)
		}
		ts.add(raw)
		if cfg.VerifyQuote != nil {
			if err := cfg.VerifyQuote(att.quote, attestPoint); err != nil {
				return c.fatal(AlertAttestationFailure, err)
			}
		}
		c.state.AttestationQuote = att.quote
		typ, body, raw, _, err = c.readHandshakeMsg(false)
		if err != nil {
			return err
		}
	} else if cfg.RequestAttestation {
		return c.fatal(AlertAttestationFailure, errors.New("tls12: peer did not attest"))
	}
	if typ != TypeServerHelloDone {
		return c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: expected server_hello_done, got %s", typ))
	}
	if len(body) != 0 {
		return c.fatal(AlertDecodeError, errors.New("tls12: malformed server_hello_done"))
	}
	ts.add(raw)

	// ClientKeyExchange: ephemeral X25519 (precomputed when the config
	// has a keyshare pool).
	priv, pub, err := cfg.keyShare()
	if err != nil {
		return c.fatal(AlertInternalError, err)
	}
	cke := &clientKeyExchange{publicKey: pub}
	ckeRaw := cke.marshal()
	if err := c.writeHandshakeMsg(ckeRaw); err != nil {
		return err
	}
	ts.add(ckeRaw)

	serverECDH, err := ecdh.X25519().NewPublicKey(ske.publicKey)
	if err != nil {
		return c.fatal(AlertIllegalParameter, err)
	}
	preMaster, err := priv.ECDH(serverECDH)
	if err != nil {
		return c.fatal(AlertIllegalParameter, err)
	}
	c.setMaster(computeMasterSecret(sh.CipherSuite, preMaster, c.clientRandom[:], c.serverRandom[:]))
	secmem.Wipe(preMaster) // only the master secret survives key derivation

	// Send ChangeCipherSpec under the old (plaintext) state, then
	// activate our write cipher and send Finished.
	if err := c.writeChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(sh.CipherSuite, true, false); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	fin := &finishedMsg{verifyData: finishedVerifyData(c.masterMAC, true, ts.sum())}
	finRaw := fin.marshal()
	if err := c.writeHandshakeMsg(finRaw); err != nil {
		return err
	}
	ts.add(finRaw)

	// NewSessionTicket (if negotiated), then server CCS + Finished.
	if sh.TicketExpected {
		nstBody, nstRaw, err := c.expectHandshakeMsg(TypeNewSessionTicket)
		if err != nil {
			return err
		}
		nst, err := parseNewSessionTicket(nstBody)
		if err != nil {
			return c.fatal(AlertDecodeError, err)
		}
		ts.add(nstRaw)
		c.deliverTicket(cfg, sh.CipherSuite, nst.ticket)
	}
	if err := c.readChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(sh.CipherSuite, false, true); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	return c.verifyPeerFinished(sh.CipherSuite, ts, false)
}

// clientResume completes an abbreviated (ticket-resumption) handshake
// from the given ticket (the primary session ticket or a hop ticket).
// The first post-ServerHello event has already been read and is passed
// in (either a NewSessionTicket message or a ChangeCipherSpec).
func (c *Conn) clientResume(cfg *Config, st *SessionTicket, sh *ServerHello, ts *transcript,
	typ HandshakeType, body, raw []byte, ccs bool) error {
	c.setMaster(append([]byte(nil), st.MasterSecret...))
	c.state.Resumed = true

	if !ccs {
		nst, err := parseNewSessionTicket(body)
		if err != nil {
			return c.fatal(AlertDecodeError, err)
		}
		ts.add(raw)
		c.deliverTicket(cfg, sh.CipherSuite, nst.ticket)
		if err := c.readChangeCipherSpec(); err != nil {
			return err
		}
	}
	if err := c.activateCiphers(sh.CipherSuite, false, true); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	if err := c.verifyPeerFinished(sh.CipherSuite, ts, false); err != nil {
		return err
	}
	if err := c.writeChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.activateCiphers(sh.CipherSuite, true, false); err != nil {
		return c.fatal(AlertInternalError, err)
	}
	fin := &finishedMsg{verifyData: finishedVerifyData(c.masterMAC, true, ts.sum())}
	finRaw := fin.marshal()
	if err := c.writeHandshakeMsg(finRaw); err != nil {
		return err
	}
	ts.add(finRaw)
	return nil
}

// deliverTicket hands a freshly issued ticket to the application.
func (c *Conn) deliverTicket(cfg *Config, suite uint16, ticket []byte) {
	if cfg.OnNewTicket == nil || len(ticket) == 0 {
		return
	}
	cfg.OnNewTicket(&SessionTicket{
		Ticket:       ticket,
		CipherSuite:  suite,
		MasterSecret: append([]byte(nil), c.masterSecret...),
	})
}

// verifyPeerFinished reads the peer Finished and checks its verify_data
// against the transcript, then adds it to the transcript.
func (c *Conn) verifyPeerFinished(suite uint16, ts *transcript, peerIsClient bool) error {
	finBody, finRaw, err := c.expectHandshakeMsg(TypeFinished)
	if err != nil {
		return err
	}
	fin, err := parseFinished(finBody)
	if err != nil {
		return c.fatal(AlertDecodeError, err)
	}
	want := finishedVerifyData(c.masterMAC, peerIsClient, ts.sum())
	if subtle.ConstantTimeCompare(fin.verifyData, want) != 1 {
		return c.fatal(AlertDecryptError, errors.New("tls12: finished verification failed"))
	}
	ts.add(finRaw)
	return nil
}

// activateCiphers installs the session's write and/or read cipher from
// the connection's key block, honoring connection role. NewCipherState
// copies the key into its AES schedule; the block itself stays with the
// connection until Wipe.
func (c *Conn) activateCiphers(suite uint16, write, read bool) error {
	cwKey, swKey, cwIV, swIV := splitKeyBlock(suite, c.keyBlock)
	myWriteKey, myWriteIV := cwKey, cwIV
	myReadKey, myReadIV := swKey, swIV
	if !c.isClient {
		myWriteKey, myWriteIV = swKey, swIV
		myReadKey, myReadIV = cwKey, cwIV
	}
	if write {
		cs, err := NewCipherState(suite, myWriteKey, myWriteIV, 0)
		if err != nil {
			return err
		}
		c.rl.SetWriteCipher(cs)
	}
	if read {
		cs, err := NewCipherState(suite, myReadKey, myReadIV, 0)
		if err != nil {
			return err
		}
		c.rl.SetReadCipher(cs)
	}
	return nil
}

// verifyServerChain parses and verifies the server's certificate chain,
// returning the chain and the leaf's Ed25519 public key.
func (c *Conn) verifyServerChain(cfg *Config, der [][]byte) ([]*x509.Certificate, ed25519.PublicKey, error) {
	if len(der) == 0 {
		return nil, nil, c.fatal(AlertBadCertificate, errors.New("tls12: empty certificate chain"))
	}
	chain := make([]*x509.Certificate, 0, len(der))
	for _, d := range der {
		cert, err := x509.ParseCertificate(d)
		if err != nil {
			return nil, nil, c.fatal(AlertBadCertificate, err)
		}
		chain = append(chain, cert)
	}
	if !cfg.InsecureSkipVerify {
		verify := func() error {
			opts := x509.VerifyOptions{
				Roots:         cfg.RootCAs,
				DNSName:       cfg.ServerName,
				CurrentTime:   clock.Or(cfg.Clock).Now(),
				Intermediates: x509.NewCertPool(),
			}
			for _, ic := range chain[1:] {
				opts.Intermediates.AddCert(ic)
			}
			_, err := chain[0].Verify(opts)
			return err
		}
		var err error
		if cfg.VerifyCache != nil {
			// The cache key binds the exact DER chain and the expected
			// name; the verdict's validity over time is bounded by the
			// cache's TTL rather than re-checking expiry per
			// connection.
			_, err = cfg.VerifyCache.Do(chainCacheKey(der, cfg.ServerName), verify)
		} else {
			err = verify()
		}
		if err != nil {
			desc := AlertBadCertificate
			var cie x509.CertificateInvalidError
			if errors.As(err, &cie) && cie.Reason == x509.Expired {
				desc = AlertCertificateExpired
			}
			var uae x509.UnknownAuthorityError
			if errors.As(err, &uae) {
				desc = AlertUnknownCA
			}
			return nil, nil, c.fatal(desc, err)
		}
	}
	pub, ok := chain[0].PublicKey.(ed25519.PublicKey)
	if !ok {
		return nil, nil, c.fatal(AlertBadCertificate, errors.New("tls12: leaf certificate key is not Ed25519"))
	}
	return chain, pub, nil
}

// chainCacheKey hashes a certificate chain's verification inputs: the
// DER chain (length-framed, so concatenation is unambiguous) and the
// expected DNS name. The trust roots are config state the cache is
// scoped to; a config swap should come with a cache Flush.
func chainCacheKey(der [][]byte, serverName string) [32]byte {
	h := sha256.New()
	var frame [8]byte
	binary.BigEndian.PutUint64(frame[:], uint64(len(serverName)))
	h.Write(frame[:])
	h.Write([]byte(serverName))
	for _, d := range der {
		binary.BigEndian.PutUint64(frame[:], uint64(len(d)))
		h.Write(frame[:])
		h.Write(d)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

func containsSuite(suites []uint16, id uint16) bool {
	for _, s := range suites {
		if s == id {
			return true
		}
	}
	return false
}
