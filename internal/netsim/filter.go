package netsim

import (
	"encoding/binary"
	"io"
	"net"
)

// This file models the on-path entities of the paper's Table 2
// handshake-viability experiment: "we verify that existing filters,
// like firewalls, traffic normalizers, or IDSes, do not drop our
// handshakes" (§5.1). Each filter inspects the byte stream the way the
// corresponding middle-entity class does; mbTLS survives all of them,
// and the StrictDPI policy exists to show the harness would detect a
// network that does block the new record types.

// Policy inspects TLS records passing a filter.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// CheckRecord returns false to kill the connection.
	CheckRecord(typ uint8, version uint16, payload []byte) bool
}

// FramingValidator models a firewall/IDS that validates TLS framing
// (plausible version and length) but passes content types it does not
// recognize — the behavior that lets mbTLS records through real
// networks.
type FramingValidator struct{}

// Name implements Policy.
func (FramingValidator) Name() string { return "framing-validator" }

// CheckRecord implements Policy.
func (FramingValidator) CheckRecord(typ uint8, version uint16, payload []byte) bool {
	if version < 0x0301 || version > 0x0304 {
		return false
	}
	return len(payload) <= 16384+2048
}

// StrictDPI models a middle-entity that enforces a content-type
// allowlist; it kills connections carrying mbTLS record types. No
// network in the paper's measurement behaved this way, but the
// experiment harness must be able to detect one that does.
type StrictDPI struct{}

// Name implements Policy.
func (StrictDPI) Name() string { return "strict-dpi" }

// CheckRecord implements Policy.
func (StrictDPI) CheckRecord(typ uint8, version uint16, payload []byte) bool {
	return typ >= 20 && typ <= 23
}

// runPolicyFilter relays src→dst record-by-record under a policy,
// closing both on a violation.
func runPolicyFilter(src, dst net.Conn, p Policy) {
	defer src.Close()
	defer dst.Close()
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		length := int(binary.BigEndian.Uint16(hdr[3:5]))
		if length > 1<<16-1 {
			return
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(src, payload); err != nil {
			return
		}
		if !p.CheckRecord(hdr[0], binary.BigEndian.Uint16(hdr[1:3]), payload) {
			return // connection killed by the filter
		}
		if _, err := dst.Write(append(hdr[:], payload...)); err != nil {
			return
		}
	}
}

// runResegmenter relays src→dst while re-chunking the byte stream at
// arbitrary boundaries, modeling TCP normalizers and transparent
// proxies that do not preserve segment boundaries.
func runResegmenter(src, dst net.Conn, chunk int) {
	defer src.Close()
	defer dst.Close()
	if chunk <= 0 {
		chunk = 7
	}
	buf := make([]byte, chunk)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// FilterKind enumerates the on-path entity classes.
type FilterKind int

// Filter kinds.
const (
	KindNone FilterKind = iota
	KindFramingValidator
	KindResegmenter
	KindPolicer
	KindStrictDPI
)

// FilterSpec describes one on-path entity.
type FilterSpec struct {
	Kind FilterKind
	// Chunk is the resegmenter's chunk size.
	Chunk int
	// Bandwidth is the policer's rate in bits per second.
	Bandwidth float64
}

// FilteredLink builds a duplex path crossing the given filters in
// order, returning the two endpoints.
func FilteredLink(specs ...FilterSpec) (client, server net.Conn) {
	left, tail := Pipe()
	client = left
	for _, spec := range specs {
		var next, far *Conn
		switch spec.Kind {
		case KindPolicer:
			next, far = NewLink(LinkConfig{Bandwidth: spec.Bandwidth})
		default:
			next, far = Pipe()
		}
		switch spec.Kind {
		case KindNone, KindPolicer:
			// Pure pass-through (the policer's shaping lives in the
			// link itself): splice bytes.
			go splice(tail, next)
		case KindFramingValidator:
			go runPolicyFilter(tail, next, FramingValidator{})
			go runPolicyFilter(next, tail, FramingValidator{})
		case KindStrictDPI:
			go runPolicyFilter(tail, next, StrictDPI{})
			go runPolicyFilter(next, tail, StrictDPI{})
		case KindResegmenter:
			go runResegmenter(tail, next, spec.Chunk)
			go runResegmenter(next, tail, spec.Chunk)
		}
		tail = far
	}
	return client, tail
}

// splice copies both directions between two conns.
func splice(a, b net.Conn) {
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(a, b) //nolint:errcheck
		a.Close()
		b.Close()
		done <- struct{}{}
	}()
	io.Copy(b, a) //nolint:errcheck
	a.Close()
	b.Close()
	<-done
}

// NetworkType categorizes the client networks of Table 2.
type NetworkType string

// The paper's nine network categories.
const (
	Enterprise    NetworkType = "Enterprise"
	University    NetworkType = "University"
	Residential   NetworkType = "Residential"
	Public        NetworkType = "Public"
	Mobile        NetworkType = "Mobile"
	Hosting       NetworkType = "Hosting"
	Colocation    NetworkType = "Colocation Services"
	DataCenter    NetworkType = "Data Center"
	Uncategorized NetworkType = "Uncategorized"
)

// Table2Sites reproduces the paper's site counts per network type
// (241 distinct client networks total).
var Table2Sites = []struct {
	Type  NetworkType
	Sites int
}{
	{Enterprise, 6},
	{University, 11},
	{Residential, 34},
	{Public, 1},
	{Mobile, 2},
	{Hosting, 56},
	{Colocation, 35},
	{DataCenter, 19},
	{Uncategorized, 77},
}

// SiteFilters returns the deterministic on-path filter stack for site
// i of a network type, modeling the middle-entity mix typical of that
// network class.
func SiteFilters(nt NetworkType, i int) []FilterSpec {
	switch nt {
	case Enterprise:
		// Corporate firewall validating TLS framing plus a normalizer.
		return []FilterSpec{
			{Kind: KindFramingValidator},
			{Kind: KindResegmenter, Chunk: 512 + 97*i},
		}
	case University:
		return []FilterSpec{{Kind: KindFramingValidator}}
	case Residential:
		// Home NAT/router resegmenting at small MTU-ish boundaries.
		return []FilterSpec{{Kind: KindResegmenter, Chunk: 128 + 53*(i%7)}}
	case Public:
		// Captive-portal style: framing checks plus a slow uplink.
		return []FilterSpec{
			{Kind: KindFramingValidator},
			{Kind: KindPolicer, Bandwidth: 20e6},
		}
	case Mobile:
		// Carrier network: policer plus normalizer.
		return []FilterSpec{
			{Kind: KindPolicer, Bandwidth: 50e6},
			{Kind: KindResegmenter, Chunk: 1400},
		}
	case Hosting, DataCenter:
		return nil // lightly filtered
	case Colocation:
		return []FilterSpec{{Kind: KindFramingValidator}}
	default: // Uncategorized: a rotating mix
		switch i % 3 {
		case 0:
			return []FilterSpec{{Kind: KindFramingValidator}}
		case 1:
			return []FilterSpec{{Kind: KindResegmenter, Chunk: 256 + 31*(i%11)}}
		default:
			return nil
		}
	}
}
