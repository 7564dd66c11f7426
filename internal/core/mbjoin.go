package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/enclave"
	"repro/internal/secmem"
	"repro/internal/tls12"
)

// The middlebox's join (paper §3.4): sniff the ClientHello, pick the
// role, take a subchannel, run the secondary handshake, then wait for
// the hop keys and — under proxysig — the delegation warrant. Each step
// is a phase of the session's hsWatch, on down's clock.

// mbRole is what differs between a middlebox's two placements, as role
// is for the endpoints (table in DESIGN.md §3). pickRole chooses one per
// session from the configured Mode and the sniffed ClientHello.
type mbRole struct {
	// mine is the direction the middlebox's subchannel arrives on: a
	// client-side middlebox converses with the client, a server-side one
	// with the server. Its secondary pipe writes the other way (reply).
	mine Direction
	// announce is the server-side join: announce ahead of the
	// ClientHello and self-assign the subchannel after the highest
	// announced one; the secondary handshake answers the server's fresh
	// hello, read off the subchannel; and a server that never speaks
	// there is a legacy one — negative cache, degrade. Otherwise the
	// middlebox takes the next subchannel when the primary ServerHello
	// passes, holds that until its own ServerHello is on the wire,
	// answers the sniffed primary hello, and issues hop tickets.
	announce bool
	// neighbor is the §4.2 neighbor-keys mode (client-side only): hop
	// keys come from subchannel-0 handshakes with both neighbors.
	neighbor bool
}

// reply is the direction the secondary session's own records travel.
func (r *mbRole) reply() Direction {
	if r.mine == DirClientToServer {
		return DirServerToClient
	}
	return DirClientToServer
}

// pickRole decides how the middlebox joins the session a ClientHello
// opens; nil keeps it out.
func (s *mbSession) pickRole(hello *tls12.ClientHello) *mbRole {
	if hello == nil {
		return nil
	}
	ms := hello.MiddleboxSupport
	if s.mb.cfg.Mode == ClientSide {
		// Join only if the client advertises mbTLS support (paper §3.4:
		// middleboxes "optimistically split the TCP connection and, upon
		// seeing the extension, join the handshake").
		if ms == nil {
			return nil
		}
		return &mbRole{mine: DirClientToServer, neighbor: ms.NeighborKeys}
	}
	// Server-side middleboxes stay out of sessions to servers on the
	// negative cache, and out of the neighbor-keys mode rather than
	// break it.
	if !s.mb.shouldAnnounce(s.up.RemoteAddr().String()) || ms != nil && ms.NeighborKeys {
		return nil
	}
	return &mbRole{mine: DirServerToClient, announce: true}
}

// run drives the session: sniff the ClientHello, pick the role and
// join, then relay.
func (s *mbSession) run() error {
	// LIFO: pipeline reapers may wait on a commit goroutine wedged in a
	// dead transport write, which only closeAll unblocks.
	defer s.retire() // last: nothing reaches the data plane past bg.Wait
	defer s.bg.Wait()
	defer s.closeAll()

	r, err := s.join()
	switch {
	case err != nil:
		return err
	case r == nil:
		return s.splice()
	case r.announce:
		go s.runSecondary(r)
	}
	return s.relayBoth() // a client-side join goes on in holdServerHello
}

// join is the session's start: the hello sniff, the role, and the
// sniffed bytes sent on. It returns the role the middlebox joined in,
// or nil to splice (the bytes read are forwarded already). The sniff
// reads into a pooled record buffer, back in the pool when join
// returns: the relay reads through its own.
func (s *mbSession) join() (*mbRole, error) {
	buf := s.mb.bufs.GetRecordBuf()
	defer s.mb.bufs.PutRecordBuf(buf)
	raw, buffered, helloRaw, maxSub, err := s.collectClientHello(buf)
	if err != nil {
		if len(raw) == 0 {
			return nil, err
		}
		// The client went away before a decision: flush what we saw.
		return nil, s.forwardSniffed(raw)
	}
	var hello *tls12.ClientHello
	if helloRaw != nil {
		hello, _ = tls12.ParseClientHello(helloRaw)
	}
	r := s.pickRole(hello)
	if r == nil {
		// Not TLS, or a TLS session this middlebox stays out of: the
		// records sniffed go on as they arrived, then bytes.
		s.mb.recordsRelayed.Add(int64(len(buffered)))
		return nil, s.forwardSniffed(raw)
	}
	s.helloRaw = helloRaw
	s.role.Store(r)
	s.mb.mbtlsSessions.Add(1)
	s.hw.enter(PhaseSecondaryHandshake)
	if !r.announce {
		// Client-side hops negotiate accountability through the primary
		// hello; a mismatch is refused on the subchannel, once it exists.
		s.acct = s.mb.newMbAccountability(s, hello)
	} else {
		s.joinMu.Lock()
		s.mySub, s.assigned = uint8(maxSub+1), true
		s.joinMu.Unlock()
	}
	// The sniffed records go on as one run — two, around a server-side
	// announcement.
	fr := fwdRun{s: s, dir: DirClientToServer}
	announced := !r.announce
	off := 0
	for _, rec := range buffered {
		if rec.Type == tls12.TypeHandshake && !announced {
			// Ahead of the ClientHello, so middleboxes closer to the
			// server count us before they self-assign.
			announced = true
			if err := fr.flush(); err != nil {
				return nil, err
			}
			ann := tls12.RawRecord{Type: tls12.TypeMiddleboxAnnouncement}
			if err := s.writeSub(DirClientToServer, s.mySub, ann.Marshal()); err != nil {
				return nil, err
			}
		}
		end := off + recordHeaderLen + len(rec.Payload)
		if err := fr.add(raw[off:end]); err != nil {
			return nil, err
		}
		off = end
	}
	return r, fr.flush()
}

// forwardSniffed ends the join of a session the middlebox splices: the
// session counts as established, and the bytes the sniff read go on.
func (s *mbSession) forwardSniffed(raw []byte) error {
	s.notifyEstablished()
	return s.write(DirClientToServer, raw)
}

// plausibleRecordHeader reports whether a 5-byte prefix looks like a
// TLS(-or-mbTLS) record header: a stream that is not TLS is relayed
// untouched.
func plausibleRecordHeader(typ uint8, version uint16, length int) bool {
	if typ < 20 || typ > 32 {
		return false
	}
	if version < 0x0301 || version > 0x0304 {
		return false
	}
	return length <= 16384+2048
}

// collectClientHello is the hello-sniff phase: it reads the client side
// into buf until a ClientHello message is complete (helloRaw non-nil)
// or the stream is not one to join (helloRaw nil, err nil). raw is
// everything read, in buf while it fits; buffered the records parsed
// from it, with the highest subchannel announced by middleboxes closer
// to the client in maxSub. On success raw is exactly buffered's wire
// form, and the bytes read past it go back in front of downR.
func (s *mbSession) collectClientHello(buf []byte) (raw []byte, buffered []tls12.RawRecord, helloRaw []byte, maxSub int, err error) {
	var hsBuf []byte
	offset := 0
	raw = buf[:0]
	for {
		// Parse as many complete records as the buffer holds.
		for len(raw)-offset >= recordHeaderLen {
			typ := raw[offset]
			version := uint16(raw[offset+1])<<8 | uint16(raw[offset+2])
			length := int(raw[offset+3])<<8 | int(raw[offset+4])
			if !plausibleRecordHeader(typ, version, length) {
				return raw, nil, nil, 0, nil // not TLS
			}
			if len(raw)-offset < recordHeaderLen+length {
				break // incomplete record
			}
			payload := raw[offset+recordHeaderLen : offset+recordHeaderLen+length]
			offset += recordHeaderLen + length
			rec := tls12.RawRecord{Type: tls12.ContentType(typ), Payload: payload}
			buffered = append(buffered, rec)
			switch rec.Type {
			case tls12.TypeEncapsulated:
				if len(payload) >= 1 && int(payload[0]) > maxSub {
					maxSub = int(payload[0])
				}
			case tls12.TypeHandshake:
				hsBuf = append(hsBuf, payload...)
				hello, herr := tls12.SplitHandshakeMsg(hsBuf)
				if herr != nil {
					// Larger than any hello to join: leave it be.
					return raw, nil, nil, maxSub, nil
				}
				if hello != nil {
					if rest := raw[offset:]; len(rest) > 0 {
						// Bytes read past the hello belong to the relay.
						s.downR = io.MultiReader(bytes.NewReader(bytes.Clone(rest)), s.down)
					}
					return raw[:offset], buffered, hello, maxSub, nil
				}
			default: // TLS framing, but no handshake opening
				return raw, nil, nil, maxSub, nil
			}
		}
		if len(raw) == cap(raw) {
			raw = slices.Grow(raw, len(raw)) // a hello past one record
		}
		n, rerr := s.down.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		if rerr != nil {
			return raw, nil, nil, maxSub, rerr
		}
	}
}

// recordHeaderLen mirrors the TLS record header size.
const recordHeaderLen = 5

// holdServerHello is the client-side join (paper §3.4: buffer the
// ServerHello, take the next available subchannel ID, inject, then
// forward): at the first primary ServerHello it starts the secondary
// handshake and holds the ServerHello until the secondary one is
// written, so middleboxes closer to the client see the subchannel in
// use before they self-assign. The secondary flight is held too: it
// leaves in front of the forwarded run that carries the ServerHello, in
// one write (fr's next flush). In neighbor-keys mode the upstream
// neighbor hello goes first too: the server stops looking for new
// subchannels once its primary handshake completes.
func (s *mbSession) holdServerHello(r *mbRole, fr *fwdRun) error {
	s.joinMu.Lock()
	first := !s.assigned
	if first {
		s.mySub, s.assigned = uint8(s.maxSubS2C+1), true
	}
	s.joinMu.Unlock()
	if !first {
		return nil
	}
	// What arrived ahead of the ServerHello leaves ahead of our flight.
	if err := fr.flush(); err != nil {
		return err
	}
	s.hold(fr.dir)
	go s.runSecondary(r)
	if r.neighbor {
		go s.runNeighborHops()
		if err := s.upNPipe.awaitWrite(); err != nil {
			return err
		}
	}
	return s.secPipe.awaitWrite()
}

// runSecondary performs the middlebox's secondary handshake, then
// receives its hop keys (key-material) and, under proxysig, its warrant
// (delegation), and installs the data plane.
func (s *mbSession) runSecondary(r *mbRole) {
	rl := tls12.NewRecordLayer(s.secPipe)
	conn, err := s.secondaryHandshake(r, rl)
	// The secondary session lives only in this goroutine.
	defer func() {
		if conn != nil {
			conn.Wipe()
		}
		rl.Release()
	}()
	if err != nil {
		if r.announce && !s.secGotData.Load() {
			// A legacy server ignored (or choked on) the announcement.
			s.mb.markNoAnnounce(s.up.RemoteAddr().String())
		}
		s.setDataPlane(nil, err)
		return
	}
	s.hw.enter(PhaseKeyMaterial)
	if conn.ConnectionState().Resumed {
		s.mb.sessionsResumed.Add(1)
	}

	if r.neighbor {
		return // hop keys come from the neighbor handshakes (§4.2)
	}

	kmBytes, err := conn.ReadKeyMaterial()
	if err != nil {
		s.setDataPlane(nil, fmt.Errorf("core: key material: %w", err))
		return
	}
	km, err := parseKeyMaterial(kmBytes)
	secmem.Wipe(kmBytes) // parseKeyMaterial copied the keys out
	if err != nil {
		s.setDataPlane(nil, err)
		return
	}
	defer km.Wipe() // held only until the data plane's cipher states are built

	// A middlebox never reseals traffic it holds no warrant for.
	if err := s.acct.receiveDelegation(conn); err != nil {
		s.setDataPlane(nil, err)
		return
	}
	if s.installDataPlane(km) {
		s.acct.serveEvidence(conn)
	}
}

// secondaryHandshake answers the hello the role names — always in the
// server role — under the accountability mode that hello negotiated.
func (s *mbSession) secondaryHandshake(r *mbRole, rl *tls12.RecordLayer) (*tls12.Conn, error) {
	helloRaw := s.helloRaw
	if r.announce {
		// The server's fresh hello negotiates accountability here.
		var err error
		if helloRaw, err = readHelloMessage(rl); err != nil {
			return nil, fmt.Errorf("core: secondary handshake: %w", err)
		}
		hello, _ := tls12.ParseClientHello(helloRaw)
		s.acct = s.mb.newMbAccountability(s, hello)
	}
	if s.acct == nil {
		// Plaintext: no handshake ran, so there is nothing to seal under.
		//nolint:errcheck // best-effort refusal; teardown follows either way
		rl.WriteRecord(tls12.TypeAlert, []byte{byte(tls12.AlertLevelFatal), byte(tls12.AlertAccountabilityMismatch)})
		return nil, &tls12.AlertError{Description: tls12.AlertAccountabilityMismatch}
	}
	cfg := s.tlsConfig()
	cfg.KeyShares = s.mb.cfg.KeyShares
	if s.mb.cfg.TicketKeys != nil && !r.announce {
		// Hop tickets under this middlebox's name. Server-side chains are
		// built from anonymous announcements: no client holds one there.
		cfg.EnableTickets = true
		cfg.TicketKeys = s.mb.cfg.TicketKeys
		cfg.HopTicketName = s.mb.cfg.Name
	}
	s.acct.configure(cfg)
	conn := tls12.ServerWithReceivedHello(rl, cfg, helloRaw)
	if err := conn.Handshake(); err != nil {
		conn.Wipe()
		return nil, fmt.Errorf("core: secondary handshake: %w", err)
	}
	return conn, nil
}

// tlsConfig is the base of every handshake the middlebox runs, in the
// server role under its certificate.
func (s *mbSession) tlsConfig() *tls12.Config {
	return &tls12.Config{
		Certificate:  s.mb.cfg.Certificate,
		CipherSuites: s.mb.cfg.CipherSuites,
		Stopwatch:    s.mb.cfg.Stopwatch,
		Clock:        s.clock,
	}
}

// readHelloMessage assembles the first handshake message from a record
// layer: the fresh ClientHello a server sends on a server-side
// middlebox's subchannel.
func readHelloMessage(rl *tls12.RecordLayer) ([]byte, error) {
	var buf []byte
	for {
		rec, err := rl.ReadRecord()
		if err != nil {
			return nil, err
		}
		if rec.Type != tls12.TypeHandshake {
			return nil, fmt.Errorf("core: expected handshake record, got %s", rec.Type)
		}
		buf = append(buf, rec.Payload...)
		if msg, err := tls12.SplitHandshakeMsg(buf); msg != nil || err != nil {
			return msg, err
		}
	}
}

// runNeighborHops runs both hop handshakes of the neighbor-keys mode —
// server toward the downstream neighbor, client toward the upstream
// one — and installs the data plane from their keys.
func (s *mbSession) runNeighborHops() {
	downCfg := s.tlsConfig()
	upCfg := s.tlsConfig()
	upCfg.Certificate = nil
	if s.mb.cfg.NeighborRoots != nil {
		upCfg.RootCAs = s.mb.cfg.NeighborRoots
	} else {
		upCfg.InsecureSkipVerify = true
	}

	type res struct {
		hop *HopKeys
		err error
	}
	downCh := make(chan res, 1)
	go func() {
		hop, err := runNeighbor(tls12.Server(tls12.NewRecordLayer(s.downNPipe), downCfg), "server")
		downCh <- res{hop, err}
	}()
	up, err := runNeighbor(tls12.Client(tls12.NewRecordLayer(s.upNPipe), upCfg), "client")
	down := <-downCh
	if down.err != nil {
		err = down.err
	}
	if err != nil {
		// The hop that did complete must not outlive the failure.
		down.hop.Wipe()
		up.Wipe()
		s.setDataPlane(nil, err)
		return
	}

	km := &KeyMaterial{Version: tls12.VersionTLS12, Down: *down.hop, Up: *up}
	defer km.Wipe() // the copies alias both hops' key slices
	s.installDataPlane(km)
}

// installDataPlane builds the session's data plane from its hop keys —
// with the session's Processor, inside the enclave when one is
// configured, in the plane registry otherwise — and publishes it,
// reporting whether it went live. A plane the session ended ahead of
// is published to no one, so it is retired here.
func (s *mbSession) installDataPlane(km *KeyMaterial) bool {
	var proc Processor
	if s.mb.cfg.NewProcessor != nil {
		proc = s.mb.cfg.NewProcessor()
	}
	host, err := newDataPlane(km, proc)
	if err != nil {
		s.setDataPlane(nil, err)
		return false
	}
	s.seedGates(host)
	var dp dataPlaneHandler = host
	if e := s.mb.cfg.Enclave; e != nil {
		dp = installEnclaveDataPlane(e, host)
	} else {
		s.mb.planesMu.Lock()
		s.mb.planes[s.id] = host
		s.mb.planesMu.Unlock()
	}
	if !s.setDataPlane(dp, nil) {
		s.mb.retirePlane(s.id, dp)
		return false
	}
	return true
}

// setDataPlane ends the join — with the data plane live, or with the
// error a record waiting for it (waitDataPlane) fails on. The first
// call decides, and is told so.
func (s *mbSession) setDataPlane(dp dataPlaneHandler, err error) (decided bool) {
	s.dpOnce.Do(func() {
		s.dp, s.dpErr = dp, err
		close(s.dpSet)
		decided = true
	})
	if s.dataPlaneIfReady() != nil {
		s.notifyEstablished()
	}
	return decided
}

// retire ends the session's data plane at teardown, once nothing can
// reach it: run has waited out every relay job and commit, and each
// gate's retired mark turns away a forceClose alert that comes later.
func (s *mbSession) retire() {
	dp := s.dataPlaneIfReady()
	if dp == nil {
		return
	}
	for i := range s.gates {
		g := &s.gates[i]
		g.flushMu.Lock()
		g.retired = true
		g.flushMu.Unlock()
	}
	s.mb.retirePlane(s.id, dp)
}

// retirePlane drops a session's data plane: out of enclave memory in one
// Enter, or out of the plane registry. The keys are dropped, not
// zeroized — Go cannot wipe the AES key schedule inside a cipher.AEAD —
// and go with the last reference to the plane.
func (mb *Middlebox) retirePlane(id uint64, dp dataPlaneHandler) {
	if edp, ok := dp.(*enclaveDataPlane); ok {
		edp.e.Enter(func(mem enclave.Memory) { mem.Delete(edp.key) })
		return
	}
	mb.planesMu.Lock()
	delete(mb.planes, id)
	mb.planesMu.Unlock()
}

// dataPlaneIfReady returns the data plane if installed.
func (s *mbSession) dataPlaneIfReady() dataPlaneHandler {
	select {
	case <-s.dpSet:
		return s.dp
	default:
		return nil
	}
}

// waitDataPlane blocks until the join ends: application data can race
// ahead of the key material (the False-Start-like case of §3.5). The
// key-material deadline bounds it, through closeAll.
func (s *mbSession) waitDataPlane() (dataPlaneHandler, error) {
	<-s.dpSet
	return s.dp, s.dpErr
}
