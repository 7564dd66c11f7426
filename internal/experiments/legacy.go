package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/mbapps"
	"repro/internal/population"
	"repro/internal/tls12"
)

// LegacyResult aggregates the §5.1 legacy-interoperability run.
type LegacyResult struct {
	Counts map[population.Outcome]int
	Total  int
}

// LegacyOptions tunes the run.
type LegacyOptions struct {
	// Parallelism bounds concurrent fetches (0 = 16).
	Parallelism int
}

// RunLegacy reproduces §5.1 "Legacy Interoperability": an mbTLS client,
// restricted to AES-256-GCM like the paper's prototype, fetches the
// root document of each of 385 synthetic HTTPS sites through the
// prototype header-inserting proxy middlebox. Sites are unmodified
// legacy TLS servers; the population reproduces the paper's failure
// classes.
func RunLegacy(opts LegacyOptions) (*LegacyResult, error) {
	pki, err := chain.NewPKI()
	if err != nil {
		return nil, err
	}

	par := opts.Parallelism
	if par <= 0 {
		par = 16
	}
	sem := make(chan struct{}, par)

	sites := population.Sites()
	result := &LegacyResult{Counts: make(map[population.Outcome]int), Total: len(sites)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, site := range sites {
		wg.Add(1)
		go func(site population.Site) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcome := fetchSite(pki, site)
			mu.Lock()
			result.Counts[outcome]++
			mu.Unlock()
		}(site)
	}
	wg.Wait()
	return result, nil
}

// fetchSite performs one fetch through the proxy middlebox and
// classifies the outcome the way the paper's client did.
func fetchSite(pki *chain.PKI, site population.Site) population.Outcome {
	behavior, err := population.Materialize(pki.CA, site)
	if err != nil {
		return population.OutcomeUnknown
	}

	ch, err := pki.Chain(nil, core.MiddleboxConfig{
		Name: "proxy.example",
		Mode: core.ClientSide,
		NewProcessor: func() core.Processor {
			return mbapps.NewHeaderInserter("Via", "1.1 mbtls-proxy")
		},
	})
	if err != nil {
		return population.OutcomeUnknown
	}
	defer ch.Close()
	clientEnd, serverEnd := ch.Client, ch.Server

	// The legacy site.
	go func() {
		defer serverEnd.Close()
		if behavior.Broken {
			// Reset mid-handshake: read a little, then vanish.
			buf := make([]byte, 64)
			serverEnd.Read(buf) //nolint:errcheck
			return
		}
		conn := tls12.NewServerConn(serverEnd, &tls12.Config{
			Certificate:  behavior.Certificate,
			CipherSuites: behavior.CipherSuites,
		})
		if err := conn.Handshake(); err != nil {
			return
		}
		httpx.Serve(conn, func(req *httpx.Request) *httpx.Response { //nolint:errcheck
			if behavior.Redirect != "" && req.Path == "/" {
				return &httpx.Response{
					StatusCode: 302,
					Header:     httpx.Header{"Location": behavior.Redirect},
				}
			}
			return &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: behavior.Body}
		})
	}()

	// The paper's prototype client: mbTLS with AES-256-GCM only.
	sess, err := core.Dial(clientEnd, &core.ClientConfig{
		TLS: &tls12.Config{
			RootCAs:      pki.CA.Pool(),
			ServerName:   site.Name,
			CipherSuites: []uint16{tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384},
		},
	})
	if err != nil {
		return classifyDialError(err)
	}
	defer sess.Close()

	resp, err := httpx.Do(sess, &httpx.Request{Method: "GET", Path: "/", Host: site.Name, Header: httpx.Header{}})
	if err != nil {
		return population.OutcomeUnknown
	}
	switch {
	case resp.StatusCode == 200 && len(resp.Body) > 0:
		return population.OutcomeSuccess
	case resp.StatusCode == 301 || resp.StatusCode == 302:
		// The experiment's simple proxy plumbing does not follow
		// cross-host redirects — the same limitation as the paper's
		// SOCKS implementation.
		return population.OutcomeRedirect
	default:
		return population.OutcomeUnknown
	}
}

// classifyDialError maps handshake failures onto §5.1's categories.
func classifyDialError(err error) population.Outcome {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "certificate") || strings.Contains(msg, "x509") ||
		strings.Contains(msg, "unknown_ca") || strings.Contains(msg, "expired"):
		return population.OutcomeBadCert
	case strings.Contains(msg, "handshake_failure") || strings.Contains(msg, "cipher suite"):
		return population.OutcomeNoCipher
	default:
		return population.OutcomeUnknown
	}
}

// FormatLegacy renders the outcome breakdown next to the paper's.
func FormatLegacy(r *LegacyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.1 Legacy Interoperability — Alexa-style population fetch via mbTLS proxy\n")
	fmt.Fprintf(&b, "%-38s | %-8s | %-8s\n", "Outcome", "Measured", "Paper")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 62))
	rows := []struct {
		o     population.Outcome
		paper int
	}{
		{population.OutcomeSuccess, population.ExpectSuccess},
		{population.OutcomeBadCert, population.ExpectBadCert},
		{population.OutcomeNoCipher, population.ExpectNoCipher},
		{population.OutcomeRedirect, population.ExpectRedirect},
		{population.OutcomeUnknown, population.ExpectUnknown},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-38s | %8d | %8d\n", row.o, r.Counts[row.o], row.paper)
	}
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 62))
	fmt.Fprintf(&b, "%-38s | %8d | %8d\n", "Total HTTPS sites", r.Total, population.HTTPSSites)
	return b.String()
}
