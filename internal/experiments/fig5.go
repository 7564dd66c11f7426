package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/certs"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/splittls"
	"repro/internal/timing"
	"repro/internal/tls12"
)

// Fig5Row is one bar group of Figure 5: per-role handshake compute
// time for one protocol configuration.
type Fig5Row struct {
	Label     string
	Client    Stat
	Middlebox Stat // zero when the configuration has no middlebox
	Server    Stat
	HasMbox   bool
}

// Fig5Options tunes the run.
type Fig5Options struct {
	// Trials per configuration (paper: 1000; default 200).
	Trials int
}

// RunFig5 reproduces Figure 5 ("Handshake CPU Microbenchmarks"): the
// time each party spends executing a single handshake, excluding
// network waits, across seven protocol configurations. Expected shape
// (§5.2): TLS ≈ mbTLS without middleboxes; the middlebox is cheaper
// under mbTLS than split TLS (one handshake instead of two); client
// cost is flat in server-side middleboxes; server cost grows ~20% per
// server-side middlebox (an additional client-role handshake each).
func RunFig5(opts Fig5Options) ([]Fig5Row, error) {
	trials := opts.Trials
	if trials <= 0 {
		trials = 200
	}
	pki, err := chain.NewPKI()
	if err != nil {
		return nil, err
	}
	interceptCA, err := certs.NewCA("split-tls custom root")
	if err != nil {
		return nil, err
	}

	configs := []struct {
		label string
		mbox  bool
		run   func(cSW, mSW, sSW *timing.Stopwatch) error
	}{
		{"TLS (no mbox)", false, func(cSW, _, sSW *timing.Stopwatch) error {
			return runPlainTLS(pki, cSW, sSW)
		}},
		{"mbTLS (no mbox)", false, func(cSW, _, sSW *timing.Stopwatch) error {
			return runMbTLS(pki, 0, 0, cSW, nil, sSW)
		}},
		{"\"Split\" TLS (1 mbox)", true, func(cSW, mSW, sSW *timing.Stopwatch) error {
			return runSplitTLS(pki, interceptCA, cSW, mSW, sSW)
		}},
		{"mbTLS (1 client mbox)", true, func(cSW, mSW, sSW *timing.Stopwatch) error {
			return runMbTLS(pki, 1, 0, cSW, mSW, sSW)
		}},
		{"mbTLS (1 server mbox)", true, func(cSW, mSW, sSW *timing.Stopwatch) error {
			return runMbTLS(pki, 0, 1, cSW, mSW, sSW)
		}},
		{"mbTLS (2 server mboxes)", true, func(cSW, mSW, sSW *timing.Stopwatch) error {
			return runMbTLS(pki, 0, 2, cSW, mSW, sSW)
		}},
		{"mbTLS (3 server mboxes)", true, func(cSW, mSW, sSW *timing.Stopwatch) error {
			return runMbTLS(pki, 0, 3, cSW, mSW, sSW)
		}},
	}

	rows := make([]Fig5Row, 0, len(configs))
	for _, cfg := range configs {
		var cs, ms, ss []time.Duration
		for i := 0; i < trials; i++ {
			var cSW, mSW, sSW timing.Stopwatch
			if err := cfg.run(&cSW, &mSW, &sSW); err != nil {
				return nil, fmt.Errorf("%s trial %d: %w", cfg.label, i, err)
			}
			cs = append(cs, cSW.Total())
			ms = append(ms, mSW.Total())
			ss = append(ss, sSW.Total())
		}
		rows = append(rows, Fig5Row{
			Label:     cfg.label,
			Client:    newStat(cs),
			Middlebox: newStat(ms),
			Server:    newStat(ss),
			HasMbox:   cfg.mbox,
		})
	}
	return rows, nil
}

// runPlainTLS performs one two-party TLS handshake over an in-memory
// pipe.
func runPlainTLS(pki *chain.PKI, cSW, sSW *timing.Stopwatch) error {
	cp, sp := netsim.Pipe()
	defer cp.Close()
	defer sp.Close()
	client := tls12.NewClientConn(cp, &tls12.Config{
		RootCAs: pki.CA.Pool(), ServerName: chain.OriginName, Stopwatch: cSW,
	})
	server := tls12.NewServerConn(sp, &tls12.Config{Certificate: pki.Origin, Stopwatch: sSW})
	errc := make(chan error, 1)
	go func() { errc <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		return err
	}
	return <-errc
}

// runMbTLS performs one mbTLS session setup with the given middlebox
// counts. mSW, when non-nil, is attached to the first middlebox.
func runMbTLS(pki *chain.PKI, clientMboxes, serverMboxes int, cSW, mSW, sSW *timing.Stopwatch) error {
	var cfgs []core.MiddleboxConfig
	for i := 0; i < clientMboxes+serverMboxes; i++ {
		cfg := core.MiddleboxConfig{Mode: core.ClientSide}
		if i >= clientMboxes {
			cfg.Mode = core.ServerSide
		}
		if i == 0 {
			cfg.Stopwatch = mSW
		}
		cfgs = append(cfgs, cfg)
	}
	ch, err := pki.Chain(nil, cfgs...)
	if err != nil {
		return err
	}
	defer ch.Close()

	ccfg, scfg := pki.ClientConfig(), pki.ServerConfig()
	ccfg.TLS.Stopwatch = cSW
	scfg.TLS.Stopwatch, scfg.MiddleboxTLS.Stopwatch = sSW, sSW
	client, server, err := chain.Establish(ch.Client, ch.Server, ccfg, scfg)
	if err != nil {
		return err
	}
	client.Close()
	server.Close()
	return nil
}

// runSplitTLS performs one split-TLS interception: two independent TLS
// handshakes, with the middlebox paying for both.
func runSplitTLS(pki *chain.PKI, interceptCA *certs.CA, cSW, mSW, sSW *timing.Stopwatch) error {
	c0a, c0b := netsim.Pipe()
	c1a, c1b := netsim.Pipe()
	ic := &splittls.Interceptor{
		CA:             interceptCA,
		Upstream:       &tls12.Config{RootCAs: pki.CA.Pool()},
		VerifyUpstream: true,
		Stopwatch:      mSW,
	}
	done := make(chan struct{})
	go func() {
		ic.Handle(c0b, c1a) //nolint:errcheck
		close(done)
	}()
	serverErr := make(chan error, 1)
	server := tls12.NewServerConn(c1b, &tls12.Config{Certificate: pki.Origin, Stopwatch: sSW})
	go func() { serverErr <- server.Handshake() }()

	client := tls12.NewClientConn(c0a, &tls12.Config{
		RootCAs: interceptCA.Pool(), ServerName: chain.OriginName, Stopwatch: cSW,
	})
	if err := client.Handshake(); err != nil {
		return err
	}
	if err := <-serverErr; err != nil {
		return err
	}
	client.Close()
	server.Close()
	<-done
	return nil
}

// FormatFig5 renders the rows as the paper's Figure 5 bar data.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Handshake CPU Microbenchmarks (per-role compute time per handshake)\n")
	fmt.Fprintf(&b, "%-26s | %-22s | %-22s | %-22s\n", "Configuration", "Client", "Middlebox", "Server")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 100))
	for _, r := range rows {
		mbox := "—"
		if r.HasMbox {
			mbox = r.Middlebox.Ms()
		}
		fmt.Fprintf(&b, "%-26s | %-22s | %-22s | %-22s\n", r.Label, r.Client.Ms(), mbox, r.Server.Ms())
	}
	return b.String()
}
