package experiments

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/netsim"
)

// Table2Row is one network-type row of the handshake-viability
// experiment.
type Table2Row struct {
	Type      netsim.NetworkType
	Sites     int
	Succeeded int
	// Failures lists per-site failure descriptions (empty when all
	// handshakes succeed, as in the paper).
	Failures []string
}

// Table2Options tunes the run.
type Table2Options struct {
	// Parallelism bounds concurrent sites (0 = 8).
	Parallelism int
	// InjectStrictDPI adds a record-type-allowlisting DPI at every
	// site, demonstrating the harness detects blocking networks
	// (no network in the paper's measurement did this).
	InjectStrictDPI bool
}

// RunTable2 reproduces Table 2 (§5.1 "Handshake Viability"): from each
// of 241 client networks — each modeled with the filter stack typical
// of its type — perform an mbTLS handshake through a client-side
// middlebox to a server, with the new record types traversing the
// filtered client network.
func RunTable2(opts Table2Options) ([]Table2Row, error) {
	pki, err := chain.NewPKI()
	if err != nil {
		return nil, err
	}

	par := opts.Parallelism
	if par <= 0 {
		par = 8
	}
	sem := make(chan struct{}, par)

	rows := make([]Table2Row, len(netsim.Table2Sites))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ti, entry := range netsim.Table2Sites {
		rows[ti] = Table2Row{Type: entry.Type, Sites: entry.Sites}
		for i := 0; i < entry.Sites; i++ {
			wg.Add(1)
			go func(ti, i int, nt netsim.NetworkType) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				err := runTable2Site(pki, nt, i, opts.InjectStrictDPI)
				mu.Lock()
				if err == nil {
					rows[ti].Succeeded++
				} else {
					rows[ti].Failures = append(rows[ti].Failures, fmt.Sprintf("%s site %d: %v", nt, i, err))
				}
				mu.Unlock()
			}(ti, i, entry.Type)
		}
	}
	wg.Wait()
	return rows, nil
}

// runTable2Site performs one handshake + echo through the site's
// filter stack: client —[client network filters]— middlebox — server.
func runTable2Site(pki *chain.PKI, nt netsim.NetworkType, i int, strictDPI bool) error {
	specs := netsim.SiteFilters(nt, i)
	if strictDPI {
		specs = append(specs, netsim.FilterSpec{Kind: netsim.KindStrictDPI})
	}
	// The client's hop crosses its network's filter stack.
	ch, err := pki.Chain(chain.ClientHop(func() (net.Conn, net.Conn) {
		return netsim.FilteredLink(specs...)
	}), core.MiddleboxConfig{Mode: core.ClientSide})
	if err != nil {
		return err
	}
	defer ch.Close()

	sess, server, err := chain.Establish(ch.Client, ch.Server, pki.ClientConfig(), pki.ServerConfig())
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	defer sess.Close()
	defer server.Close()
	if len(sess.Middleboxes()) != 1 {
		return fmt.Errorf("middlebox did not join")
	}
	serverDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		if _, err := io.ReadFull(server, buf); err != nil {
			serverDone <- err
			return
		}
		_, err := server.Write(buf)
		serverDone <- err
	}()
	msg := []byte("viability probe!")
	if _, err := sess.Write(msg); err != nil {
		return err
	}
	if _, err := io.ReadFull(sess, make([]byte, len(msg))); err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	if err := <-serverDone; err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// FormatTable2 renders the rows in the paper's Table 2 shape.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Handshake Viability — mbTLS handshakes per client-network type\n")
	fmt.Fprintf(&b, "%-20s | %-7s | %-9s\n", "Network Type", "# Sites", "Succeeded")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 44))
	total, ok := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s | %7d | %9d\n", r.Type, r.Sites, r.Succeeded)
		total += r.Sites
		ok += r.Succeeded
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "    ! %s\n", f)
		}
	}
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 44))
	fmt.Fprintf(&b, "%-20s | %7d | %9d\n", "Total", total, ok)
	return b.String()
}
