package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/blindbox"
	"repro/internal/mctls"
)

// The paper's first contribution (§2) is a design space for secure
// multi-entity communication protocols. This driver renders that
// space — each dimension with the option every protocol occupies — and
// backs as many cells as possible with live probes: mbTLS and split
// TLS run their full implementations (internal/core,
// internal/splittls), while the mcTLS and BlindBox columns are backed
// by the scoped executable models in internal/mctls and
// internal/blindbox.

// DesignDimension is one axis of the §2.1 design space.
type DesignDimension struct {
	Name    string
	Options []string
	// Position maps protocol → option (prefix-matching one of Options).
	Position map[string]string
	// Probes validates cells with live experiments, keyed by protocol.
	Probes map[string]func() (ok bool, detail string)
}

// DesignProtocols are the columns of the design-space table, in the
// paper's order of discussion.
var DesignProtocols = []string{"Split TLS", "mcTLS", "BlindBox", "mbTLS"}

// DesignSpace returns the §2.1 dimensions with each protocol's
// position per §2.2.
func DesignSpace() []DesignDimension {
	return []DesignDimension{
		{
			Name:    "Granularity of data access",
			Options: []string{"yes/no", "RW/RO/None", "functional crypto"},
			Position: map[string]string{
				"Split TLS": "yes/no",
				"mcTLS":     "RW/RO/None",
				"BlindBox":  "functional crypto",
				"mbTLS":     "yes/no",
			},
			Probes: map[string]func() (bool, string){
				"mcTLS":    probeMcTLSAccessControl,
				"BlindBox": probeBlindBoxDetection,
			},
		},
		{
			Name:    "Definition of \"party\"",
			Options: []string{"machine", "program"},
			Position: map[string]string{
				"Split TLS": "machine",
				"mcTLS":     "machine",
				"BlindBox":  "machine",
				"mbTLS":     "program",
			},
			Probes: map[string]func() (bool, string){
				"mbTLS": func() (bool, string) {
					r := adversary.MemoryRead()
					return r.Defended, r.Detail
				},
			},
		},
		{
			Name:    "Definition of \"identity\"",
			Options: []string{"owner", "code", "owner+code"},
			Position: map[string]string{
				"Split TLS": "owner (middlebox only; server identity lost)",
				"mcTLS":     "owner",
				"BlindBox":  "owner",
				"mbTLS":     "owner+code",
			},
			Probes: map[string]func() (bool, string){
				"mbTLS": func() (bool, string) {
					r := adversary.WrongMiddleboxCode()
					return r.Defended, r.Detail
				},
			},
		},
		{
			Name:    "Path integrity",
			Options: []string{"yes", "no"},
			Position: map[string]string{
				"Split TLS": "no",
				"mcTLS":     "no",
				"BlindBox":  "no",
				"mbTLS":     "yes",
			},
			Probes: map[string]func() (bool, string){
				"mbTLS": func() (bool, string) {
					r := adversary.SkipMiddlebox()
					return r.Defended, r.Detail
				},
			},
		},
		{
			Name:    "Data change secrecy",
			Options: []string{"none", "value", "value+size"},
			Position: map[string]string{
				"Split TLS": "none",
				"mcTLS":     "none",
				"BlindBox":  "none",
				"mbTLS":     "value",
			},
			Probes: map[string]func() (bool, string){
				"mbTLS": func() (bool, string) {
					r := adversary.ChangeSecrecy()
					return r.Defended, r.Detail
				},
			},
		},
		{
			Name:    "Authorization",
			Options: []string{"0 endpoints", "1 endpoint", "both endpoints", "endpoints+mboxes"},
			Position: map[string]string{
				"Split TLS": "0 endpoints",
				"mcTLS":     "both endpoints",
				"BlindBox":  "both endpoints",
				"mbTLS":     "1 endpoint",
			},
			Probes: map[string]func() (bool, string){
				"mcTLS": probeMcTLSBothEndpointAuthorization,
			},
		},
		{
			Name:    "Legacy endpoints",
			Options: []string{"both upgrade", "1 legacy", "both legacy"},
			Position: map[string]string{
				"Split TLS": "both legacy",
				"mcTLS":     "both upgrade",
				"BlindBox":  "both upgrade",
				"mbTLS":     "1 legacy",
			},
		},
		{
			Name:    "In-band discovery",
			Options: []string{"yes", "yes + 1 RTT", "no"},
			Position: map[string]string{
				"Split TLS": "yes",
				"mcTLS":     "no",
				"BlindBox":  "no",
				"mbTLS":     "yes",
			},
		},
		{
			Name:    "Computation",
			Options: []string{"arbitrary", "limited"},
			Position: map[string]string{
				"Split TLS": "arbitrary",
				"mcTLS":     "arbitrary",
				"BlindBox":  "limited (pattern matching)",
				"mbTLS":     "arbitrary",
			},
			Probes: map[string]func() (bool, string){
				"BlindBox": probeBlindBoxLimitedComputation,
			},
		},
	}
}

// probeMcTLSAccessControl exercises RW/RO/None enforcement in
// mcTLS-lite.
func probeMcTLSAccessControl() (bool, string) {
	cs, err := mctls.NewKeyShare(1)
	if err != nil {
		return false, err.Error()
	}
	ss, err := mctls.NewKeyShare(1)
	if err != nil {
		return false, err.Error()
	}
	keys, err := mctls.DeriveContextKeys(cs, ss)
	if err != nil {
		return false, err.Error()
	}
	defer keys.Wipe() // revokes every grant below with it
	rec, err := keys.Seal(0, []byte("context payload"))
	if err != nil {
		return false, err.Error()
	}
	ro := keys.Grant(mctls.ReadOnly)
	if _, err := ro.Open(rec); err != nil {
		return false, "read-only grant cannot read: " + err.Error()
	}
	if _, err := ro.Rewrite(rec, []byte("x")); err == nil {
		return false, "read-only grant could rewrite"
	}
	if none := keys.Grant(mctls.None); none.CanRead() {
		return false, "no-access grant can read"
	}
	rw := keys.Grant(mctls.ReadWrite)
	rewritten, err := rw.Rewrite(rec, []byte("rewritten"))
	if err != nil {
		return false, "read-write grant cannot rewrite: " + err.Error()
	}
	if !keys.VerifyEndpointOriginal(rec) || keys.VerifyEndpointOriginal(rewritten) {
		return false, "endpoint cannot tell a writer's record from its own"
	}
	return true, "RW/RO/None enforced cryptographically (mcTLS-lite)"
}

// probeMcTLSBothEndpointAuthorization shows one endpoint alone grants
// nothing.
func probeMcTLSBothEndpointAuthorization() (bool, string) {
	cs, err := mctls.NewKeyShare(1)
	if err != nil {
		return false, err.Error()
	}
	if _, err := mctls.DeriveContextKeys(cs, nil); err == nil {
		return false, "keys derivable from one endpoint's share"
	}
	return true, "context keys require both endpoints' shares (mcTLS-lite)"
}

// probeBlindBoxDetection shows rule detection without decryption.
func probeBlindBoxDetection() (bool, string) {
	sess, err := blindbox.NewRandomSession()
	if err != nil {
		return false, err.Error()
	}
	defer sess.Wipe()
	insp, err := sess.RuleTokens([]string{"attack-signature"})
	if err != nil {
		return false, err.Error()
	}
	rec, err := sess.Seal([]byte("payload carrying ATTACK-SIGNATURE bytes"))
	if err != nil {
		return false, err.Error()
	}
	if hits := insp.Inspect(rec); len(hits) != 1 {
		return false, fmt.Sprintf("detection failed: %v", hits)
	}
	return true, "rule matched over encrypted traffic without decryption (BlindBox-lite)"
}

// probeBlindBoxLimitedComputation documents the pattern-matching-only
// API.
func probeBlindBoxLimitedComputation() (bool, string) {
	// The inspector exposes equality matching only; transformation is
	// structurally impossible. The probe verifies the record reaching
	// the receiver is untouched after inspection.
	sess, err := blindbox.NewRandomSession()
	if err != nil {
		return false, err.Error()
	}
	defer sess.Wipe()
	insp, err := sess.RuleTokens([]string{"whatever-rule"})
	if err != nil {
		return false, err.Error()
	}
	rec, err := sess.Seal([]byte("data a compression proxy would rewrite"))
	if err != nil {
		return false, err.Error()
	}
	insp.Inspect(rec)
	if _, err := sess.Open(rec); err != nil {
		return false, err.Error()
	}
	return true, "inspection cannot transform traffic: equality matching only (BlindBox-lite)"
}

// FormatDesignSpace renders the table with live probe outcomes.
func FormatDesignSpace(dims []DesignDimension) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design space for secure multi-entity communication (paper §2)\n")
	fmt.Fprintf(&b, "%-28s | %-14s | %-14s | %-20s | %s\n", "Dimension", "Split TLS", "mcTLS", "BlindBox", "mbTLS")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 118))
	for _, d := range dims {
		fmt.Fprintf(&b, "%-28s | %-14s | %-14s | %-20s | %s\n",
			d.Name,
			truncate(d.Position["Split TLS"], 14),
			truncate(d.Position["mcTLS"], 14),
			truncate(d.Position["BlindBox"], 20),
			d.Position["mbTLS"])
		for _, proto := range DesignProtocols {
			probe, ok := d.Probes[proto]
			if !ok {
				continue
			}
			verified, detail := probe()
			status := "verified live"
			if !verified {
				status = "PROBE FAILED"
			}
			fmt.Fprintf(&b, "%-28s |   ↳ %s cell %s: %s\n", "", proto, status, detail)
		}
	}
	fmt.Fprintf(&b, "\nSplit TLS and mbTLS cells are backed by their full implementations\n")
	fmt.Fprintf(&b, "(internal/splittls, internal/core); mcTLS and BlindBox cells by the scoped\n")
	fmt.Fprintf(&b, "executable models in internal/mctls and internal/blindbox (see their docs).\n")
	return b.String()
}
