package chain

import (
	"net"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hsfast"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
)

// Hosted is the daemons' topology under construction or running:
// session hosts on one Fabric, sharing one PKI. An origin is a Serve
// with sessionhost.NewServerHandler; Middlebox puts a middlebox host in
// front of whatever address it is given, so hosts chain in series or
// fan in on one origin.
type Hosted struct {
	PKI     *PKI
	Fabric  *Fabric
	BufPool *tls12.RecordBufPool // what NewHosted was given
	hosts   []*sessionhost.Host
}

// NewHosted mints the PKI and selects the transport. pool (optional)
// is the host-scoped record-buffer pool callers hand to their
// middleboxes.
func NewHosted(transport string, pool *tls12.RecordBufPool) (*Hosted, error) {
	pki, err := NewPKI()
	if err != nil {
		return nil, err
	}
	fab, err := NewFabric(transport)
	if err != nil {
		return nil, err
	}
	return &Hosted{PKI: pki, Fabric: fab, BufPool: pool}, nil
}

// Serve binds node's listeners, starts a host on them and returns it
// with the address it is reached at. The host is Close's from here on.
func (h *Hosted) Serve(node string, cfg sessionhost.Config) (*sessionhost.Host, string, error) {
	lns, addr, err := h.Fabric.Listen(node)
	if err != nil {
		return nil, "", err
	}
	host, err := sessionhost.New(cfg)
	if err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, "", err
	}
	h.hosts = append(h.hosts, host)
	go host.ServeListeners(lns) //nolint:errcheck
	return host, addr, nil
}

// Hop is one hosted middlebox, the way into the chain behind it: Addr
// is where its host listens, Dial connects there from the node "client".
type Hop struct {
	Middlebox *core.Middlebox
	Host      *sessionhost.Host
	Addr      string
	Dial      func() (net.Conn, error)
}

// Middlebox builds mbCfg's middlebox (see PKI.Middlebox) and serves it
// on node, relaying every admitted connection to next. hcfg sizes the
// host; its Handler, MiddleboxStats and BufPool are filled in here.
func (h *Hosted) Middlebox(node string, mbCfg core.MiddleboxConfig, hcfg sessionhost.Config, next string) (*Hop, error) {
	mb, err := h.PKI.Middlebox(mbCfg)
	if err != nil {
		return nil, err
	}
	hcfg.Handler = sessionhost.NewMiddleboxHandler(mb, h.Fabric.Dialer(node, next))
	hcfg.MiddleboxStats = mb.Stats
	hcfg.BufPool = mbCfg.BufPool
	host, addr, err := h.Serve(node, hcfg)
	if err != nil {
		return nil, err
	}
	return &Hop{Middlebox: mb, Host: host, Addr: addr, Dial: h.Fabric.Dialer("client", addr)}, nil
}

// Close drains every host (which closes its listeners), the newest
// first, and releases the fabric: the teardown of a running topology
// and of one whose construction failed partway.
func (h *Hosted) Close() {
	for i := len(h.hosts) - 1; i >= 0; i-- {
		h.hosts[i].Close() //nolint:errcheck
	}
	h.Fabric.Close()
}

// Daemons is the hosted chain configured as cmd/mbtls-server and
// cmd/mbtls-proxy default, the one the chain sweeps (and benchmark/)
// measure: a ticket-issuing echo origin behind one middlebox host per
// accountability mode, and the client-side caches every worker shares.
// The attest middlebox runs in an enclave the client requires a quote
// from, checked through a cached verifier; a keyshare pool sized from
// GOMAXPROCS; a host-scoped record-buffer pool; a STEK per host,
// registered with it. The proxysig middlebox shares the certificate and
// both pools but runs outside an enclave: accountability there comes
// from delegation warrants and signed evidence.
type Daemons struct {
	*Hosted
	Verifier  *enclave.Verifier
	ChainVC   *hsfast.VerifyCache
	KeyShares *hsfast.KeySharePool
	Hops      map[core.Accountability]*Hop
}

// Close tears the hosts down and stops the keyshare pool.
func (d *Daemons) Close() {
	if d.Hosted != nil {
		d.Hosted.Close()
	}
	d.KeyShares.Close()
}

// NewDaemons builds the chain with one middlebox host per mode in
// accts, sized for maxLevel concurrent clients, and starts serving.
func NewDaemons(accts []core.Accountability, maxLevel int, transport string) (_ *Daemons, err error) {
	d := &Daemons{
		ChainVC:   hsfast.NewVerifyCache(64, time.Hour, nil),
		KeyShares: hsfast.NewKeySharePoolForShards(runtime.GOMAXPROCS(0)),
		Hops:      make(map[core.Accountability]*Hop),
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	// Admission cap: the daemons' default, or twice the clients once the
	// sweep outgrows it. Host teardown lags the client's next dial, so a
	// cap near the client count refuses the odd session, and a refusal
	// here is a failed cell, not load shedding.
	maxSessions := max(2*maxLevel, sessionhost.DefaultMaxSessions)
	if d.Hosted, err = NewHosted(transport, tls12.NewRecordBufPool(maxSessions)); err != nil {
		return nil, err
	}
	d.Verifier = d.PKI.Verifier()
	d.Verifier.Cache = hsfast.NewVerifyCache(64, time.Hour, nil)

	srvSTEK, err := hsfast.NewSTEK(time.Hour, nil)
	if err != nil {
		return nil, err
	}
	scfg := d.PKI.ServerConfig()
	scfg.TLS.EnableTickets, scfg.TLS.TicketKeys = true, srvSTEK
	_, srvAddr, err := d.Serve("server", sessionhost.Config{
		Name:        "chain-origin",
		MaxSessions: maxSessions,
		Handler:     sessionhost.NewServerHandler(scfg, Echo),
		TicketKeys:  srvSTEK,
	})
	if err != nil {
		return nil, err
	}

	for _, acct := range accts {
		node := "mb-" + acct.String()
		stek, err := hsfast.NewSTEK(time.Hour, nil)
		if err != nil {
			return nil, err
		}
		mbCfg := core.MiddleboxConfig{
			Name:           MiddleboxName,
			Mode:           core.ClientSide,
			Accountability: acct,
			BufPool:        d.BufPool,
			TicketKeys:     stek,
			KeyShares:      d.KeyShares,
		}
		if acct == core.AccountAttest {
			mbCfg.Enclave = d.PKI.Platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0"})
		}
		d.Hops[acct], err = d.Middlebox(node, mbCfg, sessionhost.Config{
			Name:         "chain-" + node,
			MaxSessions:  maxSessions,
			KeySharePool: d.KeyShares,
			TicketKeys:   stek,
		}, srvAddr)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ClientConfig returns a fresh config for a client session through
// acct's middlebox: the shared caches, and under attest a required quote.
func (d *Daemons) ClientConfig(acct core.Accountability) *core.ClientConfig {
	ccfg := d.PKI.ClientConfig()
	ccfg.TLS.VerifyCache = d.ChainVC
	ccfg.Accountability = acct
	if acct == core.AccountAttest {
		ccfg.RequireMiddleboxAttestation = true
		ccfg.MiddleboxVerifier = d.Verifier
	}
	return ccfg
}
