package tcpx_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/chain/chaintest"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sessionhost"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
)

// acctChain is one client→middlebox→server chain over real loopback
// sockets — chain's hosted topology on the tcp fabric — mirroring the
// topology of the netsim accountability failure-path tests
// (internal/core/accountability_test.go). Every proxysig fault injected
// there is re-driven here through the kernel, asserting the error class
// parity DESIGN.md §7 promises: simulator vocabulary == production
// vocabulary.
type acctChain struct {
	h   *chain.Hosted
	hop *chain.Hop
}

// newAcctChain starts the chain. mbOpt mutates the middlebox config
// before it starts (accountability mode, fault injectors); both hosts
// are torn down by t.Cleanup.
func newAcctChain(t *testing.T, mbOpt func(*core.MiddleboxConfig)) *acctChain {
	t.Helper()
	h := chaintest.NewHosted(t, chain.TransportTCP)
	// chain.Echo echoes until the client hangs up: the server session
	// must stay open while the client settles its evidence audit at Close.
	_, srvAddr, err := h.Serve("server", sessionhost.Config{
		Name: "acct-server", MaxSessions: 4,
		Handler: sessionhost.NewServerHandler(h.PKI.ServerConfig(), chain.Echo),
	})
	if err != nil {
		t.Fatal(err)
	}
	mbCfg := core.MiddleboxConfig{Mode: core.ClientSide}
	if mbOpt != nil {
		mbOpt(&mbCfg)
	}
	hop, err := h.Middlebox("mb", mbCfg, sessionhost.Config{Name: "acct-mb", MaxSessions: 4}, srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	return &acctChain{h: h, hop: hop}
}

// clientConfig builds a proxysig client config.
func (c *acctChain) clientConfig() *core.ClientConfig {
	ccfg := c.h.PKI.ClientConfig()
	ccfg.Accountability = core.AccountProxySig
	return ccfg
}

// aheadConn is a connection whose clock runs two hours fast.
type aheadConn struct{ net.Conn }

func (aheadConn) Clock() clock.Clock { return aheadClock{} }

type aheadClock struct{ clock.Real }

func (aheadClock) Now() time.Time { return time.Now().Add(2 * time.Hour) }

// dial runs the client handshake over a fresh loopback connection,
// wrapped by wrap when it is non-nil.
func (c *acctChain) dial(t *testing.T, ccfg *core.ClientConfig, wrap func(net.Conn) net.Conn) (*core.Session, error) {
	t.Helper()
	conn, err := c.hop.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	sess, err := core.Dial(conn, ccfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return sess, nil
}

// echo moves one application record each way so the middlebox reseals
// traffic and its evidence digests are non-trivial.
func echo(t *testing.T, sess *core.Session, msg string) {
	t.Helper()
	if _, err := sess.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	sess.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(sess, buf); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	sess.SetReadDeadline(time.Time{}) //nolint:errcheck
}

// TestProxySigParityOverTCP re-runs the proxysig fault matrix on real
// sockets: each adversarial case must surface the same typed error and
// ErrorClass the netsim-driven tests pin, with every goroutine
// accounted for after teardown.
func TestProxySigParityOverTCP(t *testing.T) {
	t.Run("ExpiredDelegation", func(t *testing.T) {
		goleak.Check(t)
		c := newAcctChain(t, func(cfg *core.MiddleboxConfig) {
			cfg.Accountability = core.AccountProxySig
		})
		// A client whose connection's clock runs two hours fast mints
		// warrants not yet valid by the middlebox's clock; the middlebox
		// refuses with certificate_expired at establishment.
		sess, err := c.dial(t, c.clientConfig(), func(conn net.Conn) net.Conn { return aheadConn{conn} })
		if err == nil {
			sess.Close()
			t.Fatal("handshake with an expired delegation succeeded")
		}
		var ae *tls12.AlertError
		if !errors.As(err, &ae) || !ae.Remote || ae.Description != tls12.AlertCertificateExpired {
			t.Fatalf("err = %v, want remote certificate_expired alert", err)
		}
		if cls := core.ClassifyError(err); cls != core.ClassRemoteAlert {
			t.Fatalf("expired delegation classified %s, want %s", cls, core.ClassRemoteAlert)
		}
	})

	t.Run("TamperedDelegation", func(t *testing.T) {
		goleak.Check(t)
		c := newAcctChain(t, func(cfg *core.MiddleboxConfig) {
			cfg.Accountability = core.AccountProxySig
			cfg.AccountabilityFaults = &core.AccountabilityFaults{
				MutateDelegation: func(d []byte) []byte {
					out := append([]byte(nil), d...)
					out[1] ^= 0x80
					return out
				},
			}
		})
		sess, err := c.dial(t, c.clientConfig(), nil)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		echo(t, sess, "tampered warrant")
		closeErr := sess.Close()
		var ace *core.AccountabilityError
		if !errors.As(closeErr, &ace) {
			t.Fatalf("close = %v, want *AccountabilityError", closeErr)
		}
		if cls := core.ClassifyError(closeErr); cls != core.ClassIntegrity {
			t.Fatalf("tampered delegation classified %s, want %s", cls, core.ClassIntegrity)
		}
	})

	t.Run("ForgedEvidence", func(t *testing.T) {
		goleak.Check(t)
		c := newAcctChain(t, func(cfg *core.MiddleboxConfig) {
			cfg.Accountability = core.AccountProxySig
			cfg.AccountabilityFaults = &core.AccountabilityFaults{
				MutateEvidence: func(ev []byte) []byte {
					out := append([]byte(nil), ev...)
					out[len(out)-1] ^= 0x01
					return out
				},
			}
		})
		sess, err := c.dial(t, c.clientConfig(), nil)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		echo(t, sess, "forged evidence")
		closeErr := sess.Close()
		var ace *core.AccountabilityError
		if !errors.As(closeErr, &ace) {
			t.Fatalf("close = %v, want *AccountabilityError", closeErr)
		}
		if cls := core.ClassifyError(closeErr); cls != core.ClassIntegrity {
			t.Fatalf("forged evidence classified %s, want %s", cls, core.ClassIntegrity)
		}
	})

	t.Run("AccountabilityMismatch", func(t *testing.T) {
		goleak.Check(t)
		// Middlebox stays in attest mode; the proxysig client's offer is
		// refused with a fatal accountability_mismatch alert.
		c := newAcctChain(t, nil)
		sess, err := c.dial(t, c.clientConfig(), nil)
		if err == nil {
			sess.Close()
			t.Fatal("handshake across an accountability mismatch succeeded")
		}
		var ae *tls12.AlertError
		if !errors.As(err, &ae) || ae.Description != tls12.AlertAccountabilityMismatch {
			t.Fatalf("err = %v, want accountability_mismatch alert", err)
		}
		if cls := core.ClassifyError(err); cls != core.ClassRemoteAlert {
			t.Fatalf("mismatch classified %s, want %s", cls, core.ClassRemoteAlert)
		}
	})
}
