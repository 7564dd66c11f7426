// Package adversary implements the active, global attacker of the
// paper's threat model (§3.1) and runs the concrete threats of Table 1
// against live sessions. It provides wire tamper points (observe,
// modify, drop, inject, reorder, replay, splice across hops), memory
// dumps of middlebox infrastructure, and impersonation scenarios; the
// Table 1 harness (internal/experiments) and the security tests assert
// which defenses hold for TLS, split TLS, and mbTLS.
package adversary

import (
	"net"
	"sync"

	"repro/internal/tls12"
)

// Hook intercepts one record at a tamper point and returns the records
// to forward in its place (nil drops the record).
type Hook func(rec tls12.RawRecord) []tls12.RawRecord

// PassThrough forwards records unchanged.
func PassThrough(rec tls12.RawRecord) []tls12.RawRecord {
	return []tls12.RawRecord{rec}
}

// TamperPoint is an adversary position on one link.
type TamperPoint struct {
	mu  sync.Mutex
	a   net.Conn // client side
	b   net.Conn // server side
	c2s Hook
	s2c Hook
	// Captured records per direction (observation capability).
	CapturedC2S []tls12.RawRecord
	CapturedS2C []tls12.RawRecord
	capture     bool
}

// NewTamperPoint splices an adversary between a and b. Hooks may be
// nil (pass-through); SetHooks installs them later. When capture is
// true, all records are recorded before forwarding.
func NewTamperPoint(a, b net.Conn, capture bool) *TamperPoint {
	tp := &TamperPoint{a: a, b: b, capture: capture}
	go tp.pump(a, b, true)
	go tp.pump(b, a, false)
	return tp
}

// InjectC2S writes an attacker-crafted record toward the server side
// of this tamper point.
func (tp *TamperPoint) InjectC2S(rec tls12.RawRecord) error {
	_, err := tp.b.Write(rec.Marshal())
	return err
}

// SetHooks installs (or replaces) the tamper hooks.
func (tp *TamperPoint) SetHooks(c2s, s2c Hook) {
	tp.mu.Lock()
	tp.c2s = c2s
	tp.s2c = s2c
	tp.mu.Unlock()
}

// Snapshot returns copies of the captured records.
func (tp *TamperPoint) Snapshot() (c2s, s2c []tls12.RawRecord) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]tls12.RawRecord(nil), tp.CapturedC2S...),
		append([]tls12.RawRecord(nil), tp.CapturedS2C...)
}

func (tp *TamperPoint) pump(src, dst net.Conn, c2s bool) {
	defer src.Close()
	defer dst.Close()
	for {
		rec, err := tls12.ReadRawRecord(src)
		if err != nil {
			return
		}
		tp.mu.Lock()
		if tp.capture {
			cp := tls12.RawRecord{Type: rec.Type, Payload: append([]byte(nil), rec.Payload...)}
			if c2s {
				tp.CapturedC2S = append(tp.CapturedC2S, cp)
			} else {
				tp.CapturedS2C = append(tp.CapturedS2C, cp)
			}
		}
		hook := tp.c2s
		if !c2s {
			hook = tp.s2c
		}
		tp.mu.Unlock()
		out := []tls12.RawRecord{rec}
		if hook != nil {
			out = hook(rec)
		}
		for _, r := range out {
			if _, err := dst.Write(r.Marshal()); err != nil {
				return
			}
		}
	}
}

// nthOfType returns a hook helper: calls f on the nth record (0-based)
// of the given type, passing others through.
func nthOfType(typ tls12.ContentType, n int, f Hook) Hook {
	count := 0
	return func(rec tls12.RawRecord) []tls12.RawRecord {
		if rec.Type != typ {
			return PassThrough(rec)
		}
		idx := count
		count++
		if idx != n {
			return PassThrough(rec)
		}
		return f(rec)
	}
}

// FlipByte returns a hook flipping one payload byte of the nth record
// of the given type.
func FlipByte(typ tls12.ContentType, n int) Hook {
	return nthOfType(typ, n, func(rec tls12.RawRecord) []tls12.RawRecord {
		tampered := append([]byte(nil), rec.Payload...)
		if len(tampered) > 12 {
			tampered[12] ^= 0x40
		}
		return []tls12.RawRecord{{Type: rec.Type, Payload: tampered}}
	})
}

// DropNth returns a hook dropping the nth record of the given type.
func DropNth(typ tls12.ContentType, n int) Hook {
	return nthOfType(typ, n, func(tls12.RawRecord) []tls12.RawRecord { return nil })
}

// Duplicate returns a hook replaying the nth record of the given type
// immediately after itself.
func Duplicate(typ tls12.ContentType, n int) Hook {
	return nthOfType(typ, n, func(rec tls12.RawRecord) []tls12.RawRecord {
		return []tls12.RawRecord{rec, rec}
	})
}

// SwapPair returns a hook that reorders the first two records of the
// given type (holds the first, emits it after the second).
func SwapPair(typ tls12.ContentType) Hook {
	var held *tls12.RawRecord
	count := 0
	return func(rec tls12.RawRecord) []tls12.RawRecord {
		if rec.Type != typ {
			return PassThrough(rec)
		}
		count++
		switch count {
		case 1:
			cp := tls12.RawRecord{Type: rec.Type, Payload: append([]byte(nil), rec.Payload...)}
			held = &cp
			return nil
		case 2:
			out := []tls12.RawRecord{rec, *held}
			held = nil
			return out
		default:
			return PassThrough(rec)
		}
	}
}
