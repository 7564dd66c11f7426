package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hsfast"
	"repro/internal/mbapps"
	"repro/internal/netsim"
	"repro/internal/sessionhost"
	"repro/internal/timing"
	"repro/internal/tls12"
	"repro/internal/transport"
	"repro/internal/transport/tcpx"
)

const (
	originName = "origin.example"
	mbName     = "mb.example"

	// maxSessions is each host's admission cap: the daemons' default,
	// not the experiments' 2×clients. Host teardown lags the client's
	// next dial, so at two clients a cap of four refuses a session every
	// few thousand; a refusal here is a failed op, not load shedding.
	maxSessions = sessionhost.DefaultMaxSessions

	// tracedMiddleboxes is how many middlebox instances the traced hs
	// run rotates through. A Stopwatch shared by concurrent sessions
	// accumulates the union of their busy time, not the sum; giving each
	// in-flight session an instance of its own is what makes
	// core.mb_compute_us the per-session quantity of the paper's Fig. 5.
	tracedMiddleboxes = 16
)

// mbInstance is one core.Middlebox with the enclave and stopwatch that
// are its alone.
type mbInstance struct {
	mb   *core.Middlebox
	encl *enclave.Enclave
	sw   *timing.Stopwatch
}

// chain is the system under test, all in one process: a client-side
// middlebox hosted by one sessionhost in front of an origin hosted by
// another, configured as the daemons default — one shard and one relay
// worker per core, STEK and chain tickets, a keyshare pool sized from
// the shard count, a client verify cache, attest accountability.
type chain struct {
	w   workload
	clk clock
	// tr is nil in the untraced run: nothing in this file then wraps,
	// decorates or reads the clock.
	tr    *tracer
	conns sync.Map // dialer local address → resolver; see wrap.go

	ca       *certs.CA
	verifier *enclave.Verifier
	chainVC  *hsfast.VerifyCache
	// clientCache is chainVC, decorated in the traced run.
	clientCache tls12.ChainCache

	mbs    []*mbInstance
	mbFree chan *mbInstance // traced hs run only; otherwise mbs[0] serves every session

	relay      *core.RelayPool
	relayStart time.Time
	ksPool     *hsfast.KeySharePool
	bufPool    *tls12.RecordBufPool
	scfg       *core.ServerConfig
	serve      func(*core.Session) error
	mbHost     *sessionhost.Host
	srvHost    *sessionhost.Host

	rawDialMB  func() (net.Conn, error)
	rawDialSrv func() (net.Conn, error)

	cc      *timedChainCache
	steks   []*countedTicketKeys
	compute struct{ client, mb, server atomic.Int64 } // ns of handshake compute, traced run
}

// buildChain sets the whole chain up and starts serving. serve is the
// origin's application: echo, sink or HTTP.
func buildChain(w workload, clk clock, tr *tracer, serve func(*core.Session) error) (*chain, error) {
	ch := &chain{w: w, clk: clk, tr: tr, serve: serve}
	srvLns, mbLns, err := ch.build()
	if err != nil {
		// Nothing serves yet: release what build got as far as making.
		closeListeners(srvLns)
		closeListeners(mbLns)
		if ch.relay != nil {
			ch.relay.Close()
		}
		if ch.ksPool != nil {
			ch.ksPool.Close()
		}
		return nil, err
	}
	// Serve returns nil once Close has shut the listeners; an earlier
	// failure shows as failed dials, which the run counts.
	go ch.srvHost.ServeListeners(srvLns) //nolint:errcheck
	go ch.mbHost.ServeListeners(mbLns)   //nolint:errcheck
	return ch, nil
}

// build makes every part of the chain and returns the bound listeners,
// not yet served.
func (ch *chain) build() (srvLns, mbLns []net.Listener, err error) {
	w, tr := ch.w, ch.tr
	shards := runtime.GOMAXPROCS(0)

	if ch.ca, err = certs.NewCA("benchmark root"); err != nil {
		return nil, nil, err
	}
	serverCert, err := ch.ca.Issue(originName, []string{originName}, nil)
	if err != nil {
		return srvLns, mbLns, err
	}
	mbCert, err := ch.ca.Issue(mbName, []string{mbName}, nil)
	if err != nil {
		return srvLns, mbLns, err
	}
	var platform *enclave.Platform
	if w.sgx {
		authority, err := enclave.NewAuthority()
		if err != nil {
			return srvLns, mbLns, err
		}
		if platform, err = authority.NewPlatform(); err != nil {
			return srvLns, mbLns, err
		}
		platform.SetBoundaryCost(boundaryCost)
		ch.verifier = &enclave.Verifier{
			Authority: authority.PublicKey(),
			Cache:     hsfast.NewVerifyCache(64, time.Hour, nil),
		}
	}

	ch.bufPool = tls12.NewRecordBufPool(2 * maxSessions)
	if srvLns, mbLns, err = ch.fabric(shards); err != nil {
		return nil, nil, err
	}

	ch.chainVC = hsfast.NewVerifyCache(64, time.Hour, nil)
	ch.clientCache = ch.chainVC
	ch.ksPool = hsfast.NewKeySharePoolForShards(shards)
	var keyShares tls12.KeyShareSource = ch.ksPool
	if tr != nil {
		ch.cc = &timedChainCache{ChainCache: ch.chainVC, t: tr}
		ch.clientCache = ch.cc
		keyShares = &timedKeyShares{KeyShareSource: ch.ksPool, t: tr}
	}

	srvSTEK, err := hsfast.NewSTEK(time.Hour, nil)
	if err != nil {
		return srvLns, mbLns, err
	}
	ch.scfg = &core.ServerConfig{
		TLS: &tls12.Config{
			Certificate:   serverCert,
			EnableTickets: true,
			TicketKeys:    ch.ticketKeys(srvSTEK),
			KeyShares:     keyShares,
		},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: ch.ca.Pool()},
		HandshakeTimeout:  30 * time.Second,
	}
	ch.srvHost, err = sessionhost.New(sessionhost.Config{
		Name:        "benchmark-origin",
		MaxSessions: maxSessions,
		Shards:      shards,
		Handler:     sessionhost.HandlerFunc(ch.serveOrigin),
		TicketKeys:  srvSTEK,
	})
	if err != nil {
		return srvLns, mbLns, err
	}

	mbSTEK, err := hsfast.NewSTEK(time.Hour, nil)
	if err != nil {
		return srvLns, mbLns, err
	}
	ch.relay = core.NewRelayPool(0)
	ch.relayStart = ch.clk.Now()
	instances := 1
	if tr != nil && w.kind == kindHS {
		instances = tracedMiddleboxes
		ch.mbFree = make(chan *mbInstance, instances)
	}
	for i := 0; i < instances; i++ {
		inst := &mbInstance{}
		cfg := core.MiddleboxConfig{
			Name:        mbName,
			Mode:        core.ClientSide,
			Certificate: mbCert,
			BufPool:     ch.bufPool,
			RelayPool:   ch.relay,
			TicketKeys:  ch.ticketKeys(mbSTEK),
			KeyShares:   keyShares,
		}
		if w.sgx {
			inst.encl = platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-benchmark", Version: "1.0"})
			cfg.Enclave = inst.encl
		}
		if w.processor {
			cfg.NewProcessor = ch.newProcessor
		}
		if tr != nil {
			inst.sw = new(timing.Stopwatch)
			cfg.Stopwatch = inst.sw
		}
		if inst.mb, err = core.NewMiddlebox(cfg); err != nil {
			return srvLns, mbLns, err
		}
		ch.mbs = append(ch.mbs, inst)
		if ch.mbFree != nil {
			ch.mbFree <- inst
		}
	}
	ch.mbHost, err = sessionhost.New(sessionhost.Config{
		Name:           "benchmark-mb",
		MaxSessions:    maxSessions,
		Shards:         shards,
		BufPool:        ch.bufPool,
		Handler:        sessionhost.HandlerFunc(ch.serveMiddlebox),
		MiddleboxStats: ch.middleboxStats,
		KeySharePool:   ch.ksPool,
		TicketKeys:     mbSTEK,
		RelayPool:      ch.relay,
	})
	if err != nil {
		return srvLns, mbLns, err
	}
	return srvLns, mbLns, nil
}

// fabric binds both hosts' listeners on the workload's transport and
// sets the two raw dial funcs. Netsim keeps named nodes; TCP binds one
// SO_REUSEPORT loopback listener per shard and pools reads.
func (ch *chain) fabric(shards int) (srvLns, mbLns []net.Listener, err error) {
	switch ch.w.transport {
	case trNetsim:
		n := netsim.NewNetwork()
		srvLn, err := n.Listen("server")
		if err != nil {
			return nil, nil, err
		}
		mbLn, err := n.Listen("mb")
		if err != nil {
			return nil, nil, err
		}
		srvLns, mbLns = []net.Listener{srvLn}, []net.Listener{mbLn}
		clientTr, mbTr := transport.NewNetsim(n, "client"), transport.NewNetsim(n, "mb")
		ch.rawDialMB = func() (net.Conn, error) { return clientTr.Dial("mb") }
		ch.rawDialSrv = func() (net.Conn, error) { return mbTr.Dial("server") }
	case trTCP:
		tr := tcpx.New(tcpx.Config{ReusePort: true, Pool: ch.bufPool})
		if srvLns, err = tr.ListenShards("127.0.0.1:0", shards); err != nil {
			return nil, nil, err
		}
		if mbLns, err = tr.ListenShards("127.0.0.1:0", shards); err != nil {
			closeListeners(srvLns)
			return nil, nil, err
		}
		srvAddr, mbAddr := srvLns[0].Addr().String(), mbLns[0].Addr().String()
		ch.rawDialMB = func() (net.Conn, error) { return tr.Dial(mbAddr) }
		ch.rawDialSrv = func() (net.Conn, error) { return tr.Dial(srvAddr) }
	default:
		return nil, nil, fmt.Errorf("unknown transport %q", ch.w.transport)
	}
	if ch.tr != nil {
		for _, lns := range [][]net.Listener{srvLns, mbLns} {
			for i, ln := range lns {
				lns[i] = &tracedListener{Listener: ln, ch: ch}
			}
		}
	}
	return srvLns, mbLns, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// ticketKeys is the TicketKeySource a config gets: the STEK itself, or
// in the traced run a counting decorator around it.
func (ch *chain) ticketKeys(stek *hsfast.STEK) tls12.TicketKeySource {
	if ch.tr == nil {
		return stek
	}
	k := &countedTicketKeys{TicketKeySource: stek, t: ch.tr}
	ch.steks = append(ch.steks, k)
	return k
}

func (ch *chain) newProcessor() core.Processor {
	p := mbapps.NewHeaderInserter("Via", viaValue)
	if ch.tr == nil {
		return p
	}
	return &timedProcessor{Processor: p, t: ch.tr}
}

// dialMB opens a client connection to the middlebox host. In the
// traced run the dial is a span under the operation ref names and the
// connection is wrapped.
func (ch *chain) dialMB(buf *spanBuf, ref *opRef) (net.Conn, error) {
	if ch.tr == nil {
		return ch.rawDialMB()
	}
	start := ch.tr.now()
	c, err := ch.rawDialMB()
	op, root := ref.resolve()
	ch.tr.record(buf, lTransportDial, ch.tr.id(), root, op, start, ch.tr.now())
	if err != nil {
		return nil, err
	}
	return ch.wrapConn(c, ref.resolve), nil
}

// serveMiddlebox is the middlebox host's handler: dial the origin,
// relay until either side closes.
func (ch *chain) serveMiddlebox(ctl *sessionhost.Control, down net.Conn) error {
	inst := ch.mbs[0]
	if ch.mbFree != nil {
		inst = <-ch.mbFree
		defer func() { ch.mbFree <- inst }()
	}
	if ch.tr == nil {
		up, err := ch.rawDialSrv()
		if err != nil {
			return err
		}
		defer up.Close()
		return inst.mb.HandleHosted(down, up, ctl)
	}

	buf := ch.tr.get()
	defer ch.tr.put(buf)
	res := resolverOf(down)
	sid, computeBefore := ch.tr.id(), inst.sw.Total()
	start := ch.tr.now()
	raw, err := ch.rawDialSrv()
	dialed := ch.tr.now()
	if err == nil {
		up := ch.wrapConn(raw, res)
		err = inst.mb.HandleHosted(down, up, ctl)
		up.Close()
	}
	end := ch.tr.now()
	// The ordinal is read last: by now the client has written, so the
	// accepted connection has found its dialer.
	op, root := res()
	ch.tr.record(buf, lTransportDialNext, ch.tr.id(), sid, op, start, dialed)
	ch.tr.record(buf, lCoreMBSession, sid, root, op, start, end)
	if ch.tr.active.Load() {
		ch.compute.mb.Add(int64(inst.sw.Total() - computeBefore))
	}
	return err
}

// serveOrigin is the origin host's handler: establish the server
// session, run the workload's application on it.
func (ch *chain) serveOrigin(ctl *sessionhost.Control, conn net.Conn) error {
	cfg := ch.scfg
	var sw *timing.Stopwatch
	var start int64
	if ch.tr != nil {
		// A stopwatch of this session's own, for the same reason the
		// middlebox instances are not shared.
		sw = new(timing.Stopwatch)
		primary, secondary := *cfg.TLS, *cfg.MiddleboxTLS
		primary.Stopwatch, secondary.Stopwatch = sw, sw
		copied := *cfg
		copied.TLS, copied.MiddleboxTLS = &primary, &secondary
		cfg = &copied
		start = ch.tr.now()
	}
	sess, err := core.Accept(conn, cfg)
	if ch.tr != nil {
		end := ch.tr.now()
		buf := ch.tr.get()
		op, root := resolverOf(conn)()
		ch.tr.record(buf, lCoreAccept, ch.tr.id(), root, op, start, end)
		ch.tr.put(buf)
		if ch.tr.active.Load() {
			ch.compute.server.Add(int64(sw.Total()))
		}
	}
	if err != nil {
		return err
	}
	ctl.SessionEstablished()
	ctl.RegisterForceClose(func() { sess.Close() })
	err = ch.serve(sess)
	sess.Close()
	ctl.ReportStats(sess.Stats())
	return err
}

// clientConfig builds one session's client config. redeem (optional)
// is the chain ticket to offer; onTicket receives the reissued one; sw
// (optional) accumulates this session's client compute.
func (ch *chain) clientConfig(redeem *core.ChainTicket, onTicket func(*core.ChainTicket), sw *timing.Stopwatch) *core.ClientConfig {
	cfg := &core.ClientConfig{
		TLS: &tls12.Config{
			RootCAs:     ch.ca.Pool(),
			ServerName:  originName,
			VerifyCache: ch.clientCache,
			Stopwatch:   sw,
		},
		HandshakeTimeout: 30 * time.Second,
		ChainTicket:      redeem,
		OnNewChainTicket: onTicket,
	}
	if ch.w.sgx {
		cfg.RequireMiddleboxAttestation = true
		cfg.MiddleboxVerifier = ch.verifier
	}
	return cfg
}

func (ch *chain) middleboxStats() core.MiddleboxStats {
	var sum core.MiddleboxStats
	for _, inst := range ch.mbs {
		st := inst.mb.Stats()
		sum.Sessions += st.Sessions
		sum.MbTLSSessions += st.MbTLSSessions
		sum.RecordsRelayed += st.RecordsRelayed
		sum.RecordsRekeyed += st.RecordsRekeyed
		sum.BytesProcessed += st.BytesProcessed
		sum.FaultsObserved += st.FaultsObserved
		sum.SessionsResumed += st.SessionsResumed
	}
	return sum
}

// chainStats is every public stats surface of the chain at one moment.
// Per-layer metrics marked "stats" are differences of two of these.
type chainStats struct {
	at    time.Time
	mb    core.MiddleboxStats
	relay core.RelayPoolStats
	// relayBusy is the relay workers' cumulative busy nanoseconds,
	// recovered from the pool's since-start utilization: the pool
	// exposes no busy counter, and a window's utilization is the
	// difference of two of these over the window.
	relayBusy   float64
	buf         tls12.RecordBufPoolStats
	ks          hsfast.KeySharePoolStats
	transitions int64
	mbHost      sessionhost.Metrics
	srvHost     sessionhost.Metrics
}

func (ch *chain) stats() chainStats {
	st := chainStats{
		at:      ch.clk.Now(),
		mb:      ch.middleboxStats(),
		relay:   ch.relay.Stats(),
		buf:     ch.bufPool.Stats(),
		ks:      ch.ksPool.Stats(),
		mbHost:  ch.mbHost.Snapshot(),
		srvHost: ch.srvHost.Snapshot(),
	}
	st.relayBusy = st.relay.Utilization * float64(st.at.Sub(ch.relayStart)) * float64(st.relay.Workers)
	for _, inst := range ch.mbs {
		if inst.encl != nil {
			st.transitions += inst.encl.Transitions()
		}
	}
	return st
}

// close drains both hosts, then stops the pools their sessions used.
func (ch *chain) close() error {
	err := ch.mbHost.Close()
	if cerr := ch.srvHost.Close(); err == nil {
		err = cerr
	}
	ch.relay.Close()
	ch.ksPool.Close()
	ch.ca.Wipe()
	return err
}
