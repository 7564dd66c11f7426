package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hsfast"
	"repro/internal/netsim"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
	"repro/internal/transport/tcpx"
)

// A probe is an isolated loop over one layer's public function, with
// nothing else running: the layer's cost when it does not have to share
// the cores, and so the floor of what the workloads can see of it.

const (
	// probeSlices is how many slices a probe runs; its value is their
	// median, as an end-to-end metric is the median of its windows.
	probeSlices = 5
	// probeBatch is the records per reseal/seal/open iteration: the
	// relay's own batch size.
	probeBatch = 32
	probeSuite = tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384
)

// probe runs body repeatedly for probeSlices slices and returns, per
// timed quantity, the median over slices of nanoseconds per op. body
// adds the time it spent in each quantity to ns and returns how many
// ops that covered; what it does untimed (building inputs, draining
// outputs) is not charged.
func probe(clk clock, slice time.Duration, quantities int, body func(ns []int64) (int, error)) ([]float64, error) {
	perSlice := make([][]float64, quantities)
	ns := make([]int64, quantities)
	for s := 0; s < probeSlices; s++ {
		for i := range ns {
			ns[i] = 0
		}
		ops := 0
		for end := clk.Now().Add(slice); ops == 0 || clk.Now().Before(end); {
			n, err := body(ns)
			if err != nil {
				return nil, err
			}
			ops += n
		}
		for i := range ns {
			perSlice[i] = append(perSlice[i], float64(ns[i])/float64(ops))
		}
	}
	out := make([]float64, quantities)
	for i, v := range perSlice {
		sort.Float64s(v)
		out[i] = v[len(v)/2]
	}
	return out, nil
}

// since is the nanoseconds from start to now.
func since(clk clock, start time.Time) int64 { return int64(clk.Now().Sub(start)) }

// runProbes measures every probe metric at the given record size.
func runProbes(clk clock, recordSize int, slice time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	steps := []func(clock, int, time.Duration, map[string]float64) error{
		probeReseal, probeAEAD, probeHandshake, probeEnclave, probeAdmit, probeRTT,
	}
	for _, step := range steps {
		if err := step(clk, recordSize, slice, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func newProbePlatform() (*enclave.Authority, *enclave.Platform, error) {
	authority, err := enclave.NewAuthority()
	if err != nil {
		return nil, nil, err
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		return nil, nil, err
	}
	platform.SetBoundaryCost(boundaryCost)
	return authority, platform, nil
}

// probeReseal times core.BenchHarness.ProcessBatch — open under one
// hop key, reseal under the next — on the host plane and the enclave
// plane. Sealing the input and draining the output play the client and
// the server and are not timed.
func probeReseal(clk clock, recordSize int, slice time.Duration, out map[string]float64) error {
	_, platform, err := newProbePlatform()
	if err != nil {
		return err
	}
	planes := []struct {
		metric string
		encl   *enclave.Enclave
	}{
		{"core.reseal_ns_per_record", nil},
		{"core.reseal_sgx_ns_per_record", platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-benchmark-probe", Version: "1.0"})},
	}
	plaintext := newPattern(1).at(0, recordSize)
	for _, plane := range planes {
		h, err := core.NewBenchHarness(plane.encl, probeSuite, true)
		if err != nil {
			return err
		}
		src := make([]byte, 0, probeBatch*(recordSize+64))
		dst := make([]byte, 0, cap(src))
		recs := make([]tls12.RawRecord, 0, probeBatch)
		v, err := probe(clk, slice, 1, func(ns []int64) (int, error) {
			src, recs = src[:0], recs[:0]
			for i := 0; i < probeBatch; i++ {
				var rec tls12.RawRecord
				src, rec = h.SealInto(src, plaintext)
				recs = append(recs, rec)
			}
			start := clk.Now()
			var n int
			var err error
			dst, n, err = h.ProcessBatch(recs, dst[:0])
			ns[0] += since(clk, start)
			if err != nil {
				return 0, err
			}
			if n != probeBatch {
				return 0, fmt.Errorf("reseal probe: %d of %d records came out", n, probeBatch)
			}
			if _, err := h.DrainWire(dst); err != nil {
				return 0, err
			}
			return probeBatch, nil
		})
		if err != nil {
			return err
		}
		out[plane.metric] = v[0]
	}
	return nil
}

// probeAEAD times one record-layer AEAD pass each way:
// CipherState.SealAppend and OpenInPlace.
func probeAEAD(clk clock, recordSize int, slice time.Duration, out map[string]float64) error {
	keys, err := core.GenerateHopKeys(probeSuite)
	if err != nil {
		return err
	}
	defer keys.Wipe()
	seal, err := tls12.NewCipherState(probeSuite, keys.C2SKey, keys.C2SIV, 0)
	if err != nil {
		return err
	}
	open, err := tls12.NewCipherState(probeSuite, keys.C2SKey, keys.C2SIV, 0)
	if err != nil {
		return err
	}
	plaintext := newPattern(1).at(0, recordSize)
	wire := make([]byte, 0, probeBatch*(recordSize+64))
	ends := make([]int, probeBatch)
	v, err := probe(clk, slice, 2, func(ns []int64) (int, error) {
		wire = wire[:0]
		start := clk.Now()
		for i := range ends {
			wire = seal.SealAppend(wire, tls12.TypeApplicationData, plaintext)
			ends[i] = len(wire)
		}
		ns[0] += since(clk, start)
		start = clk.Now()
		from := 0
		for _, end := range ends {
			if _, err := open.OpenInPlace(tls12.TypeApplicationData, wire[from:end]); err != nil {
				return 0, err
			}
			from = end
		}
		ns[1] += since(clk, start)
		return probeBatch, nil
	})
	if err != nil {
		return err
	}
	out["tls12.seal_ns_per_record"], out["tls12.open_ns_per_record"] = v[0], v[1]
	return nil
}

// probeHandshake times a two-party tls12 handshake over an in-memory
// pipe, full and ticket-resumed: the paper's "TLS, no middlebox" bar,
// and the floor under the chain's establishment time.
func probeHandshake(clk clock, _ int, slice time.Duration, out map[string]float64) error {
	ca, err := certs.NewCA("benchmark probe root")
	if err != nil {
		return err
	}
	defer ca.Wipe()
	cert, err := ca.Issue(originName, []string{originName}, nil)
	if err != nil {
		return err
	}
	defer cert.Wipe()
	stek, err := hsfast.NewSTEK(time.Hour, nil)
	if err != nil {
		return err
	}
	defer stek.Wipe()
	server := &tls12.Config{Certificate: cert, EnableTickets: true, TicketKeys: stek}
	var ticket *tls12.SessionTicket
	handshake := func(resume *tls12.SessionTicket) (int64, error) {
		cp, sp := netsim.Pipe()
		defer cp.Close()
		defer sp.Close()
		sc := tls12.NewServerConn(sp, server)
		cc := tls12.NewClientConn(cp, &tls12.Config{
			RootCAs: ca.Pool(), ServerName: originName, EnableTickets: true,
			SessionTicket: resume,
			OnNewTicket:   func(t *tls12.SessionTicket) { ticket = t },
		})
		errc := make(chan error, 1)
		start := clk.Now()
		go func() { errc <- sc.Handshake() }()
		err := cc.Handshake()
		if serr := <-errc; err == nil {
			err = serr
		}
		took := since(clk, start)
		if err == nil && cc.ConnectionState().Resumed != (resume != nil) {
			err = fmt.Errorf("handshake probe: resumed=%v with ticket offered=%v", cc.ConnectionState().Resumed, resume != nil)
		}
		return took, err
	}
	for _, mode := range []struct {
		metric  string
		resumed bool
	}{{"tls12.handshake_full_us", false}, {"tls12.handshake_resumed_us", true}} {
		v, err := probe(clk, slice, 1, func(ns []int64) (int, error) {
			var offer *tls12.SessionTicket
			if mode.resumed {
				offer = ticket
			}
			took, err := handshake(offer)
			ns[0] += took
			return 1, err
		})
		if err != nil {
			return err
		}
		if ticket == nil {
			return errors.New("handshake probe: the server issued no ticket")
		}
		out[mode.metric] = v[0] / 1e3
	}
	ticket.Wipe()
	return nil
}

// probeEnclave times an empty boundary crossing, producing a quote,
// and verifying one.
func probeEnclave(clk clock, _ int, slice time.Duration, out map[string]float64) error {
	authority, platform, err := newProbePlatform()
	if err != nil {
		return err
	}
	encl := platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-benchmark-probe", Version: "1.0"})
	v, err := probe(clk, slice, 1, func(ns []int64) (int, error) {
		start := clk.Now()
		encl.Enter(func(enclave.Memory) {})
		ns[0] += since(clk, start)
		return 1, nil
	})
	if err != nil {
		return err
	}
	out["enclave.enter_ns"] = v[0]

	reportData := make([]byte, enclave.ReportDataLen)
	var quote *enclave.Quote
	v, err = probe(clk, slice, 1, func(ns []int64) (int, error) {
		var err error
		encl.Enter(func(mem enclave.Memory) {
			start := clk.Now()
			quote, err = mem.Quote(reportData)
			ns[0] += since(clk, start)
		})
		return 1, err
	})
	if err != nil {
		return err
	}
	out["enclave.quote_us"] = v[0] / 1e3

	verifier := &enclave.Verifier{Authority: authority.PublicKey(), Cache: hsfast.NewVerifyCache(64, time.Hour, nil)}
	wire := quote.Marshal()
	v, err = probe(clk, slice, 1, func(ns []int64) (int, error) {
		start := clk.Now()
		err := verifier.VerifyQuote(wire, reportData)
		ns[0] += since(clk, start)
		return 1, err
	})
	if err != nil {
		return err
	}
	out["enclave.verify_quote_us"] = v[0] / 1e3
	return nil
}

// nopConn is a connection a handler never touches; the host only
// closes it.
type nopConn struct{ net.Conn }

func (nopConn) Close() error { return nil }

// probeAdmit times sessionhost admission: Host.Submit to the handler's
// first instruction, with a handler that does nothing.
func probeAdmit(clk clock, _ int, slice time.Duration, out map[string]float64) error {
	entered := make(chan time.Time)
	host, err := sessionhost.New(sessionhost.Config{
		Name: "benchmark-probe",
		Handler: sessionhost.HandlerFunc(func(*sessionhost.Control, net.Conn) error {
			entered <- clk.Now()
			return nil
		}),
	})
	if err != nil {
		return err
	}
	v, err := probe(clk, slice, 1, func(ns []int64) (int, error) {
		start := clk.Now()
		for host.Submit(nopConn{}) != nil {
			// Every slot taken: the teardown of earlier admissions is
			// still releasing them. Let it run and time a fresh attempt.
			runtime.Gosched()
			start = clk.Now()
		}
		ns[0] += int64((<-entered).Sub(start))
		return 1, nil
	})
	if cerr := host.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out["sessionhost.admit_ns"] = v[0]
	return nil
}

// probeRTT times a 64-byte ping-pong over each transport: the cost of
// one flight, with nothing above the connection.
func probeRTT(clk clock, _ int, slice time.Duration, out map[string]float64) error {
	a, b := netsim.Pipe()
	rtt, err := pingPong(clk, slice, a, b)
	if err != nil {
		return fmt.Errorf("netsim rtt probe: %w", err)
	}
	out["transport.netsim_rtt_ns"] = rtt

	tr := tcpx.Default()
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	c, err := tr.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	select {
	case s := <-accepted:
		rtt, err = pingPong(clk, slice, c, s)
	case err = <-acceptErr:
		c.Close()
	}
	if err != nil {
		return fmt.Errorf("tcp rtt probe: %w", err)
	}
	out["transport.tcp_rtt_ns"] = rtt
	return nil
}

// pingPong bounces 64 bytes between the two ends and returns the
// nanoseconds per round trip. It closes both ends.
func pingPong(clk clock, slice time.Duration, near, far net.Conn) (float64, error) {
	echoed := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(far, buf); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := far.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	ping, pong := newPattern(1).at(0, 64), make([]byte, 64)
	v, err := probe(clk, slice, 1, func(ns []int64) (int, error) {
		start := clk.Now()
		if _, err := near.Write(ping); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(near, pong); err != nil {
			return 0, err
		}
		ns[0] += since(clk, start)
		return 1, nil
	})
	near.Close()
	eerr := <-echoed
	far.Close()
	if err != nil {
		return 0, err
	}
	if eerr != nil {
		return 0, eerr
	}
	return v[0], nil
}
