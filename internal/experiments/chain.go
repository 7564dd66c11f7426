package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/hsfast"
)

// The chain sweeps measure one topology — client → hosted middlebox →
// hosted origin, the daemons' production configuration — two ways.
// `sessions` asks how the session-host runtime holds up as concurrency
// grows; `handshake` asks what the chain-ticket fast path and each
// accountability mode cost at establishment. Both are cell tables
// handed to one builder (chain.NewDaemons) and one driver (runCell).

// SessionsLevels is the default concurrency sweep of the sessions
// table. The high levels (256, 1024) oversubscribe any realistic core
// count, so they measure how admission and the handshake gate behave
// when the host is the bottleneck, not the clients.
var SessionsLevels = []int{4, 16, 64, 256, 1024}

// HandshakeLevels is the default concurrency sweep of the handshake
// table. 16-way is the acceptance point: resumed chains should sustain
// at least twice the sessions/sec of full chains at half the p50.
var HandshakeLevels = []int{4, 16}

// ChainOptions tunes a chain sweep.
type ChainOptions struct {
	// Levels overrides the table's concurrency sweep.
	Levels []int
	// SessionsPerWorker is how many sequential sessions each worker
	// runs per cell (default 8 for sessions, 16 for handshake).
	SessionsPerWorker int
	// Transport selects the byte-moving backend: chain.TransportNetsim
	// (default) or chain.TransportTCP, the same topology over loopback
	// kernel sockets with one SO_REUSEPORT listener per core.
	Transport string
	// Quick shrinks the run to a smoke test (one 4-way level, two
	// sessions per worker) and skips the keyshare hit-rate gate.
	Quick bool
}

// resolve applies the table's defaults and the Quick override.
func (o ChainOptions) resolve(levels []int, perWorker int) ChainOptions {
	if len(o.Levels) == 0 {
		o.Levels = levels
	}
	if o.SessionsPerWorker <= 0 {
		o.SessionsPerWorker = perWorker
	}
	if o.Quick {
		o.Levels, o.SessionsPerWorker = []int{4}, 2
	}
	return o
}

// ChainRow is one measured cell.
type ChainRow struct {
	// Accountability is the negotiated mode: "attest" (enclave quotes
	// during the secondary handshake) or "proxysig" (delegation warrants
	// at establishment, signed evidence at close).
	Accountability string
	// Mode is "full" (complete chain handshakes) or "resumed" (every
	// measured session redeems the previous one's chain ticket).
	Mode string
	// Concurrency is how many workers ran sessions at once.
	Concurrency int
	// Sessions is the number of completed measured sessions.
	Sessions int
	// SessionsPerSec is sustained whole-session throughput
	// (establishment + one echo round trip + teardown).
	SessionsPerSec float64
	// HandshakeP50Ms / HandshakeP99Ms are client-observed chain
	// establishment latency percentiles in milliseconds.
	HandshakeP50Ms float64
	HandshakeP99Ms float64
	// ResumedPrimary / ResumedHops count measured sessions that took
	// the chain-ticket fast path (zero in full mode by construction).
	ResumedPrimary int64
	ResumedHops    int64
	// KeyShareHitRate, VerifyCacheHitRate and PoolHitRate are the
	// middlebox keyshare pool's, the client chain-verification cache's
	// and the host-scoped record-buffer pool's hit rates over the cell,
	// seeding burst included: that burst is exactly the load the
	// keyshare pool exists to absorb.
	KeyShareHitRate    float64
	VerifyCacheHitRate float64
	PoolHitRate        float64
	// SpeedupVsFull is a resumed row's sessions/sec over the full row's
	// at the same accountability and concurrency (zero when the table
	// has no such row).
	SpeedupVsFull float64
}

// ChainReport is one chain sweep's result.
type ChainReport struct {
	// Title heads the formatted table.
	Title string
	// Transport is the backend the sweep ran over.
	Transport string
	Rows      []ChainRow
	// Soak is the idle-session soak result (`sessions -soak` only).
	Soak *SoakRow

	// Whole-run counters the tables gate on.
	keyShares      hsfast.KeySharePoolStats
	evidenceSigned int64
}

// session runs one complete client session under acct: establish
// (timed; redeeming *ct when resume is set), one echo round trip,
// close — which under proxysig collects and audits the middlebox's
// evidence. *ct receives the session's reissued chain ticket.
func session(env *chain.Daemons, acct core.Accountability, resume bool, ct **core.ChainTicket,
	payload []byte) (time.Duration, core.SessionStats, error) {

	conn, err := env.Hops[acct].Dial()
	if err != nil {
		return 0, core.SessionStats{}, err
	}
	ccfg := env.ClientConfig(acct)
	ccfg.OnNewChainTicket = func(c *core.ChainTicket) { *ct = c }
	if resume {
		ccfg.ChainTicket = *ct
	}
	start := time.Now()
	sess, err := core.Dial(conn, ccfg)
	if err != nil {
		conn.Close()
		return 0, core.SessionStats{}, err
	}
	hs := time.Since(start)
	defer sess.Close()
	if _, err := sess.Write(payload); err != nil {
		return 0, core.SessionStats{}, err
	}
	if _, err := io.ReadFull(sess, make([]byte, len(payload))); err != nil {
		return 0, core.SessionStats{}, err
	}
	return hs, sess.Stats(), nil
}

// chainCell names one measurement: which middlebox, full or resumed
// establishment, how many concurrent workers.
type chainCell struct {
	acct    core.Accountability
	resumed bool
	level   int
}

func (c chainCell) mode() string {
	if c.resumed {
		return "resumed"
	}
	return "full"
}

func (c chainCell) String() string { return fmt.Sprintf("%s/%s@%d", c.acct, c.mode(), c.level) }

// eachWorker runs fn on n goroutines and returns the first error.
func eachWorker(n int, fn func(w int) error) error {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := fn(w); err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// hitRate is hits/lookups over a window, given as counter deltas.
func hitRate[T int64 | uint64](hits, lookups T) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// runCell drives one cell: cell.level workers each run perWorker
// sessions back to back through the shared hosts, and the timings are
// reduced to a row. A resumed cell first seeds every worker's chain
// ticket with one full session before the clock starts; each measured
// session then redeems the previous one's reissue, the way a
// production client does.
func runCell(env *chain.Daemons, cell chainCell, perWorker int, payload []byte) (ChainRow, error) {
	row := ChainRow{Accountability: cell.acct.String(), Mode: cell.mode(), Concurrency: cell.level}
	ks0, vc0, pool0 := env.KeyShares.Stats(), env.ChainVC.Stats(), env.BufPool.Stats()

	tickets := make([]*core.ChainTicket, cell.level)
	if cell.resumed {
		err := eachWorker(cell.level, func(w int) error {
			_, _, err := session(env, cell.acct, false, &tickets[w], payload)
			return err
		})
		if err != nil {
			return row, fmt.Errorf("seed: %w", err)
		}
	}

	latencies := make([]time.Duration, cell.level*perWorker) // worker w owns [w*perWorker, (w+1)*perWorker)
	var resumedPrimary, resumedHops atomic.Int64
	start := time.Now()
	err := eachWorker(cell.level, func(w int) error {
		for i := 0; i < perWorker; i++ {
			hs, st, err := session(env, cell.acct, cell.resumed, &tickets[w], payload)
			if err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
			latencies[w*perWorker+i] = hs
			resumedPrimary.Add(st.ResumedPrimary)
			resumedHops.Add(st.ResumedHops)
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return row, err
	}
	row.ResumedPrimary, row.ResumedHops = resumedPrimary.Load(), resumedHops.Load()
	if cell.resumed && (row.ResumedPrimary == 0 || row.ResumedHops == 0) {
		return row, fmt.Errorf("no session took the fast path (resumed primary=%d hops=%d)",
			row.ResumedPrimary, row.ResumedHops)
	}

	slices.Sort(latencies)
	row.Sessions = len(latencies)
	row.SessionsPerSec = float64(row.Sessions) / elapsed.Seconds()
	row.HandshakeP50Ms = float64(percentileDuration(latencies, 0.50)) / float64(time.Millisecond)
	row.HandshakeP99Ms = float64(percentileDuration(latencies, 0.99)) / float64(time.Millisecond)
	ks1, vc1, pool1 := env.KeyShares.Stats(), env.ChainVC.Stats(), env.BufPool.Stats()
	row.KeyShareHitRate = hitRate(ks1.Hits-ks0.Hits, ks1.Hits+ks1.Misses-ks0.Hits-ks0.Misses)
	row.VerifyCacheHitRate = hitRate(vc1.Hits-vc0.Hits, vc1.Hits+vc1.Misses-vc0.Hits-vc0.Misses)
	row.PoolHitRate = hitRate(pool1.Hits-pool0.Hits, pool1.Gets-pool0.Gets)
	return row, nil
}

// runChainTable builds the chain the cells need and drives each cell
// in order. The report carries the whole-run counters the tables gate
// on, read while the chain still runs.
func runChainTable(title string, opts ChainOptions, payloadBytes int, cells []chainCell) (*ChainReport, error) {
	var accts []core.Accountability
	maxLevel := 0
	for _, c := range cells {
		if !slices.Contains(accts, c.acct) {
			accts = append(accts, c.acct)
		}
		maxLevel = max(maxLevel, c.level)
	}
	env, err := chain.NewDaemons(accts, maxLevel, opts.Transport)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	rep := &ChainReport{Title: title, Transport: env.Fabric.Name}
	payload := core.RandomPlaintext(payloadBytes)
	for _, cell := range cells {
		row, err := runCell(env, cell, opts.SessionsPerWorker, payload)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cell, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.keyShares = env.KeyShares.Stats()
	for _, hop := range env.Hops {
		rep.evidenceSigned += hop.Middlebox.Stats().EvidenceSigned
	}
	return rep, nil
}

// RunSessions measures the sessionhost runtime under concurrent
// session churn: one attest/resumed cell per concurrency level with a
// 4 KiB echo, so the rows exercise admission, the handshake gate,
// resumption and teardown together. The keyshare pool's whole-run hit
// rate gates the result: a sag there means the pool is
// under-provisioned for the core count.
func RunSessions(opts ChainOptions) (*ChainReport, error) {
	opts = opts.resolve(SessionsLevels, 8)
	var cells []chainCell
	for _, level := range opts.Levels {
		cells = append(cells, chainCell{core.AccountAttest, true, level})
	}
	rep, err := runChainTable("Session host: concurrent full-session throughput", opts, 4096, cells)
	if err != nil {
		return nil, err
	}
	if st := rep.keyShares; !opts.Quick && st.Hits+st.Misses > 0 && st.HitRate() < 0.90 {
		return nil, fmt.Errorf("sessions: keyshare pool hit rate %.3f below the 0.90 gate "+
			"(capacity %d, workers %d — pool under-provisioned)",
			st.HitRate(), st.Capacity, st.Workers)
	}
	return rep, nil
}

// RunHandshake measures the handshake fast path: full chain
// establishment (primary + middlebox hop, every signature and
// verification live) against chain-ticket resumption of the same
// topology, at each concurrency level and under each accountability
// mode, with a 256 B echo so establishment dominates. The
// attest-vs-proxysig comparison shows what each trust mechanism costs
// at establishment time.
func RunHandshake(opts ChainOptions) (*ChainReport, error) {
	opts = opts.resolve(HandshakeLevels, 16)
	var cells []chainCell
	for _, acct := range []core.Accountability{core.AccountAttest, core.AccountProxySig} {
		for _, level := range opts.Levels {
			cells = append(cells, chainCell{acct, false, level}, chainCell{acct, true, level})
		}
	}
	rep, err := runChainTable("Handshake fast path: full vs chain-ticket-resumed, attest vs proxysig", opts, 256, cells)
	if err != nil {
		return nil, err
	}
	// Every proxysig session audits its middlebox at close; a sweep that
	// completed without signed evidence would mean the mode silently
	// degraded, so fail loudly rather than report hollow numbers.
	if rep.evidenceSigned == 0 {
		return nil, fmt.Errorf("handshake proxysig: no middlebox evidence was signed")
	}
	// Cells come in full/resumed pairs.
	for i := 0; i+1 < len(rep.Rows); i += 2 {
		if full := rep.Rows[i].SessionsPerSec; full > 0 {
			rep.Rows[i+1].SpeedupVsFull = rep.Rows[i+1].SessionsPerSec / full
		}
	}
	return rep, nil
}

// percentileDuration returns the p-quantile of an already-sorted
// slice (nearest-rank).
func percentileDuration(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * p)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// FormatChain renders a chain sweep.
func FormatChain(rep *ChainReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s transport)\n", rep.Title, rep.Transport)
	fmt.Fprintf(&b, "%-8s | %-7s | %-11s | %8s | %12s | %9s | %9s | %7s | %6s | %6s | %8s | %7s\n",
		"Acct", "Mode", "Concurrency", "Sessions", "Sessions/sec", "HS p50", "HS p99",
		"Resumed", "KS hit", "VC hit", "Pool hit", "Speedup")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 134))
	for _, r := range rep.Rows {
		speedup := ""
		if r.SpeedupVsFull > 0 {
			speedup = fmt.Sprintf("%.2fx", r.SpeedupVsFull)
		}
		fmt.Fprintf(&b, "%-8s | %-7s | %-11d | %8d | %12.1f | %7.2fms | %7.2fms | %7d | %5.0f%% | %5.0f%% | %7.0f%% | %7s\n",
			r.Accountability, r.Mode, r.Concurrency, r.Sessions, r.SessionsPerSec,
			r.HandshakeP50Ms, r.HandshakeP99Ms, r.ResumedPrimary,
			100*r.KeyShareHitRate, 100*r.VerifyCacheHitRate, 100*r.PoolHitRate, speedup)
	}
	if rep.Soak != nil {
		b.WriteString("\n")
		b.WriteString(FormatSoak(rep.Soak))
	}
	return b.String()
}
