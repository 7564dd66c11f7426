package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/enclave"
)

// Fig7BufferSizes are the paper's x-axis chunk sizes.
var Fig7BufferSizes = []int{512, 1024, 2048, 4096, 8192, 12288}

// Fig7Cell is one configuration × buffer-size measurement.
type Fig7Cell struct {
	Encryption bool
	Enclave    bool
	BufSize    int
	// Gbps is the delivered application throughput through the
	// middlebox.
	Gbps float64
	// Transitions counts enclave boundary crossings during the
	// measurement window (zero without an enclave), and
	// TransitionsPerRecord divides them by the chunks delivered in it:
	// how far the relay amortises the boundary over its batches.
	Transitions          int64
	TransitionsPerRecord float64
}

// Fig7Options tunes the run.
type Fig7Options struct {
	// Window is the measurement duration per cell (default 250 ms).
	Window time.Duration
	// Streams is the number of concurrent client connections
	// saturating the middlebox (default 4).
	Streams int
	// BoundaryCost is the simulated enclave transition cost
	// (default 1 µs, in line with published SGX ecall measurements).
	BoundaryCost time.Duration
	// BufSizes overrides the buffer-size sweep.
	BufSizes []int
	// Transport selects the byte-moving backend for every stream hop:
	// chain.TransportNetsim (default, in-memory pipes) or
	// chain.TransportTCP (loopback kernel sockets).
	Transport string
	// Quick shrinks the run to a smoke test (the CI gate): one buffer
	// size and a short window. It fails when an Encryption + Enclave
	// cell crosses the boundary twice a record or more — the relay's
	// batches are not filling.
	Quick bool
}

// RunFig7 reproduces Figure 7 ("SGX (Non-)Overhead"): middlebox
// throughput with/without decrypt-re-encrypt and with/without an
// enclave, across chunk sizes. Expected shape (§5.3): the enclave has
// no noticeable impact — per-chunk I/O overhead (here: relay
// scheduling and copying, as interrupts were in the paper) dominates
// the boundary-crossing cost — while the encryption configurations
// plateau at the AES-GCM compute bound.
func RunFig7(opts Fig7Options) ([]Fig7Cell, error) {
	window := opts.Window
	if window <= 0 {
		window = 250 * time.Millisecond
	}
	streams := opts.Streams
	if streams <= 0 {
		streams = 4
	}
	boundaryCost := opts.BoundaryCost
	if boundaryCost <= 0 {
		boundaryCost = time.Microsecond
	}
	bufSizes := opts.BufSizes
	if len(bufSizes) == 0 {
		bufSizes = Fig7BufferSizes
	}
	if opts.Quick {
		if opts.Window <= 0 {
			window = 50 * time.Millisecond
		}
		if len(opts.BufSizes) == 0 {
			bufSizes = []int{4096}
		}
	}

	pki, err := chain.NewPKI()
	if err != nil {
		return nil, err
	}
	pki.Platform.SetBoundaryCost(boundaryCost)
	fab, err := chain.NewFabric(opts.Transport)
	if err != nil {
		return nil, err
	}
	defer fab.Close()

	var cells []Fig7Cell
	for _, encryption := range []bool{false, true} {
		for _, useEnclave := range []bool{false, true} {
			for _, bufSize := range bufSizes {
				cell, err := fig7Cell(pki, fab.Pair, encryption, useEnclave, bufSize, streams, window)
				if err != nil {
					return nil, fmt.Errorf("fig7 enc=%v sgx=%v buf=%d: %w", encryption, useEnclave, bufSize, err)
				}
				if opts.Quick && encryption && useEnclave && cell.TransitionsPerRecord >= 2 {
					return nil, fmt.Errorf("fig7 buf=%d: %.2f enclave transitions per record, want < 2 (batches not filling)", bufSize, cell.TransitionsPerRecord)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// fig7Cell measures one configuration: several client streams pump
// fixed-size chunks through one middlebox to a sink server for the
// window duration. Every stream is its own chain over link's hops
// through the one shared middlebox; whatever was built is torn down on
// every return path.
func fig7Cell(pki *chain.PKI, link chain.Link, encryption, useEnclave bool,
	bufSize, streams int, window time.Duration) (cell Fig7Cell, err error) {

	cell = Fig7Cell{Encryption: encryption, Enclave: useEnclave, BufSize: bufSize}

	mbCfg := core.MiddleboxConfig{Mode: core.ClientSide}
	var encl *enclave.Enclave
	if useEnclave {
		encl = pki.Platform.CreateEnclave(enclave.CodeImage{Name: "fig7-mbox", Version: "1.0"})
		mbCfg.Enclave = encl
	}
	mb, err := pki.Middlebox(mbCfg)
	if err != nil {
		return cell, err
	}

	var delivered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Establish all sessions before opening the measurement window.
	type endpoints struct {
		w io.Writer
		r io.Reader
		c func()
	}
	eps := make([]endpoints, 0, streams)
	// The one teardown, on every return path: end the sources, close
	// what each stream established, then its chain (Close waits for the
	// middlebox's Handle).
	var chains []*chain.Chain
	defer func() {
		close(stop)
		wg.Wait()
		for _, ep := range eps {
			ep.c()
		}
		for _, ch := range chains {
			ch.Close()
		}
	}()
	for s := 0; s < streams; s++ {
		ch, err := chain.Wire(link, mb)
		if err != nil {
			return cell, fmt.Errorf("stream %d: %w", s, err)
		}
		chains = append(chains, ch)
		ep := endpoints{w: ch.Client, r: ch.Server, c: ch.Close}
		if encryption {
			client, server, err := chain.Establish(ch.Client, ch.Server, pki.ClientConfig(), pki.ServerConfig())
			if err != nil {
				return cell, fmt.Errorf("stream %d: %w", s, err)
			}
			ep = endpoints{w: client, r: server, c: sync.OnceFunc(func() { client.Close(); server.Close() })}
		}
		eps = append(eps, ep)
	}

	payload := core.RandomPlaintext(bufSize)
	errs := make(chan error, 1)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for _, ep := range eps {
		// Sink: counts delivered bytes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				n, err := ep.r.Read(buf)
				delivered.Add(int64(n))
				if err != nil {
					fail(err)
					return
				}
			}
		}()
		// Source: writes chunks until stopped.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ep.c()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ep.w.Write(payload); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

	// Let the pipeline warm up, then measure a clean window.
	time.Sleep(30 * time.Millisecond)
	delivered.Store(0)
	var startTransitions int64
	if encl != nil {
		startTransitions = encl.Transitions()
	}
	start := time.Now()
	time.Sleep(window)
	bytes := delivered.Load()
	elapsed := time.Since(start)
	if encl != nil {
		cell.Transitions = encl.Transitions() - startTransitions
		cell.TransitionsPerRecord = float64(cell.Transitions) * float64(bufSize) / float64(max(bytes, 1))
	}
	// A stream dying mid-window invalidates the measurement; report it
	// before teardown floods the error channel with shutdown noise.
	select {
	case err := <-errs:
		return cell, fmt.Errorf("stream failed during measurement: %w", err)
	default:
	}
	cell.Gbps = float64(bytes) * 8 / elapsed.Seconds() / 1e9
	return cell, nil
}

// FormatFig7 renders the cells as the paper's Figure 7 series.
func FormatFig7(cells []Fig7Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: SGX (Non-)Overhead — middlebox throughput (Gbps)\n")
	fmt.Fprintf(&b, "(in brackets: enclave transitions per record)\n")
	fmt.Fprintf(&b, "%-32s", "Configuration \\ Buffer")
	sizes := []int{}
	seen := map[int]bool{}
	for _, c := range cells {
		if !seen[c.BufSize] {
			seen[c.BufSize] = true
			sizes = append(sizes, c.BufSize)
			fmt.Fprintf(&b, " | %13s", byteSize(c.BufSize))
		}
	}
	fmt.Fprintf(&b, "\n%s\n", strings.Repeat("-", 34+16*len(sizes)))
	for _, enc := range []bool{false, true} {
		for _, sgx := range []bool{false, true} {
			label := map[bool]string{false: "No Encryption", true: "Encryption"}[enc] +
				map[bool]string{false: " + No Enclave", true: " + Enclave"}[sgx]
			fmt.Fprintf(&b, "%-32s", label)
			for _, size := range sizes {
				for _, c := range cells {
					if c.Encryption == enc && c.Enclave == sgx && c.BufSize == size {
						text := fmt.Sprintf("%.2f", c.Gbps)
						if sgx {
							text += fmt.Sprintf(" (%.2f)", c.TransitionsPerRecord)
						}
						fmt.Fprintf(&b, " | %13s", text)
					}
				}
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

func byteSize(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%d", n)
}
