package tls12

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"io"
	"time"

	"repro/internal/clock"
	"repro/internal/secmem"
	"repro/internal/wire"
)

// ticketLifetime is the advertised session ticket lifetime.
const ticketLifetime = 24 * time.Hour

// sessionState is the server-side session state sealed inside a ticket.
type sessionState struct {
	suite     uint16
	master    []byte
	createdAt uint64 // unix seconds
}

// wipe zeroizes the sealed-in master secret. Callers wipe a
// sessionState as soon as the ticket is sealed or the resumed
// connection has cloned the master.
func (s *sessionState) wipe() {
	if s == nil {
		return
	}
	secmem.Wipe(s.master)
	s.master = nil
}

func (s *sessionState) marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddUint16(s.suite)
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes(s.master) })
	b.AddUint64(s.createdAt)
	return b.Bytes()
}

func parseSessionState(data []byte) (*sessionState, error) {
	p := wire.NewParser(data)
	var s sessionState
	var master []byte
	if !p.ReadUint16(&s.suite) || !p.ReadUint8Prefixed(&master) || !p.ReadUint64(&s.createdAt) || !p.Empty() {
		return nil, errors.New("tls12: malformed session state")
	}
	s.master = append([]byte(nil), master...)
	return &s, nil
}

// ticketAEAD builds the AES-256-GCM AEAD for one ticket key.
func ticketAEAD(key [32]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// isZeroKey reports whether key is the all-zero key a source that
// serves nothing hands out.
func isZeroKey(key *[32]byte) bool {
	var zero [32]byte
	return subtle.ConstantTimeCompare(key[:], zero[:]) == 1
}

// ticketSealer returns the AEAD new tickets are sealed under — the
// source's seal generation — or nil when the source serves none.
func ticketSealer(src TicketKeySource) cipher.AEAD {
	if s, ok := src.(TicketAEADSource); ok {
		return s.SealAEAD()
	}
	key := src.SealKey()
	if isZeroKey(&key) {
		return nil
	}
	aead, err := ticketAEAD(key)
	if err != nil {
		return nil
	}
	return aead
}

// sealTicket encrypts session state under aead (ticketSealer's) with a
// random nonce prepended.
func sealTicket(aead cipher.AEAD, state *sessionState) ([]byte, error) {
	plain := state.marshal()
	ns := aead.NonceSize()
	sealed := make([]byte, ns, ns+len(plain)+aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, sealed); err != nil {
		secmem.Wipe(plain)
		return nil, err
	}
	sealed = aead.Seal(sealed, sealed, plain, nil)
	secmem.Wipe(plain) // the plaintext holds the master secret
	return sealed, nil
}

// openTicket decrypts and validates a session ticket, trying every
// open-eligible ticket key (the current STEK generation plus the grace
// window). It returns nil (no error) for tickets that do not decrypt
// under any key or have expired, signaling a fallback to a full
// handshake rather than a protocol failure — this is how tickets
// sealed under a retired STEK generation die quietly.
func openTicket(cfg *Config, ticket []byte) *sessionState {
	var plain []byte
	tryOpen := func(aead cipher.AEAD) bool {
		ns := aead.NonceSize()
		if len(ticket) < ns {
			return false
		}
		var err error
		plain, err = aead.Open(nil, ticket[:ns], ticket[ns:], nil)
		return err == nil
	}
	if s, ok := cfg.TicketKeys.(TicketAEADSource); ok {
		for _, aead := range s.OpenAEADs() {
			if tryOpen(aead) {
				break
			}
		}
	} else {
		for _, key := range cfg.TicketKeys.OpenKeys() {
			if isZeroKey(&key) {
				continue
			}
			if aead, err := ticketAEAD(key); err == nil && tryOpen(aead) {
				break
			}
		}
	}
	if plain == nil {
		return nil
	}
	state, err := parseSessionState(plain)
	secmem.Wipe(plain) // parseSessionState cloned the master out
	if err != nil {
		return nil
	}
	created := time.Unix(int64(state.createdAt), 0)
	now := clock.Or(cfg.Clock).Now()
	if now.Before(created) || now.Sub(created) > ticketLifetime {
		state.wipe()
		return nil
	}
	if !cfg.supportsSuite(state.suite) {
		state.wipe()
		return nil
	}
	return state
}
