package chain

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sessionhost"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
)

// TestChainBuilderFailsClean makes the hosted builder fail midway — PKI
// and the keyshare pool's refill workers exist by the time the
// transport name is rejected — and checks the error path's Close
// released them: nothing is left running, let alone listening.
func TestChainBuilderFailsClean(t *testing.T) {
	base := goleak.Base()
	d, err := NewDaemons([]core.Accountability{core.AccountAttest}, 2, "carrier-pigeon")
	if err == nil {
		d.Close()
		t.Fatal("builder accepted an unknown transport")
	}
	if d != nil {
		t.Errorf("builder returned a chain alongside %v", err)
	}
	goleak.Wait(t, base)
}

// closeCounter is a Link over Pipes that counts the conns it handed out
// and the ones since closed, and fails at hop failAt (never when
// negative).
type closeCounter struct {
	failAt       int
	made, closed atomic.Int32
}

type countedConn struct {
	net.Conn
	c      *closeCounter
	closed atomic.Bool
}

func (c *countedConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.c.closed.Add(1)
	}
	return c.Conn.Close()
}

var errLinkDown = errors.New("link down")

func (c *closeCounter) link(hop int) (net.Conn, net.Conn, error) {
	if hop == c.failAt {
		return nil, nil, errLinkDown
	}
	down, up, _ := Pipes(hop)
	c.made.Add(2)
	return &countedConn{Conn: down, c: c}, &countedConn{Conn: up, c: c}, nil
}

// TestWireFailsClean: a bare chain whose k-th link constructor errors
// leaves no goroutine and no open conn, whichever hop k is.
func TestWireFailsClean(t *testing.T) {
	pki, err := NewPKI()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 2; k++ {
		base := goleak.Base()
		cc := &closeCounter{failAt: k}
		ch, err := pki.Chain(cc.link, core.MiddleboxConfig{Mode: core.ClientSide}, core.MiddleboxConfig{Mode: core.ServerSide})
		if !errors.Is(err, errLinkDown) || ch != nil {
			t.Fatalf("hop %d down: Chain = %v, %v; want the link's error", k, ch, err)
		}
		if made, closed := cc.made.Load(), cc.closed.Load(); made != int32(2*k) || closed != made {
			t.Errorf("hop %d down: %d conns made, %d closed", k, made, closed)
		}
		goleak.Wait(t, base)
	}
}

// TestEstablishVeto: when the client's Approve vetoes the middlebox,
// Establish returns the client's error, only after the server's Accept
// has returned too, with both transports closed.
func TestEstablishVeto(t *testing.T) {
	pki, err := NewPKI()
	if err != nil {
		t.Fatal(err)
	}
	base := goleak.Base()
	cc := &closeCounter{failAt: -1}
	ch, err := pki.Chain(cc.link, core.MiddleboxConfig{Name: "unwanted.example", Mode: core.ClientSide})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := pki.ClientConfig()
	ccfg.Approve = func(core.MiddleboxSummary) bool { return false }
	client, server, err := Establish(ch.Client, ch.Server, ccfg, pki.ServerConfig())
	if err == nil || !strings.HasPrefix(err.Error(), "client: ") || !strings.Contains(err.Error(), "rejected by application") {
		t.Fatalf("err = %v, want the client's rejection of the middlebox", err)
	}
	if client != nil || server != nil {
		t.Error("Establish returned a session alongside its error")
	}
	for name, end := range map[string]net.Conn{"client": ch.Client, "server": ch.Server} {
		if !end.(*countedConn).closed.Load() {
			t.Errorf("%s transport left open", name)
		}
	}
	// Accept has returned and the middlebox needs no Close to unwind:
	// nothing is running.
	goleak.Wait(t, base)
	ch.Close()
}

// heldConn keeps a Handle from returning: once its Read has failed it
// parks until release closes.
type heldConn struct {
	net.Conn
	release chan struct{}
}

func (c *heldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		<-c.release
	}
	return n, err
}

// TestCloseWaitsForHandles: Close returns only after every Handle has,
// and may be called again.
func TestCloseWaitsForHandles(t *testing.T) {
	pki, err := NewPKI()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	ch, err := pki.Chain(func(hop int) (net.Conn, net.Conn, error) {
		down, up, _ := Pipes(hop)
		return down, &heldConn{Conn: up, release: release}, nil
	}, core.MiddleboxConfig{Mode: core.ClientSide}, core.MiddleboxConfig{Mode: core.ClientSide})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		ch.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the middleboxes' Handles were still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting 5s after every Handle could return")
	}
	ch.Close()
}

// TestHostPoolDrawsMatchAcrossFabrics: the same scripted hosted session
// draws the same number of buffers from the host-scoped pool on tcp as
// on netsim — the transport keeps none, so the pool bounds the relay's
// reseal buffers and nothing else. A Processor makes every relay job
// inline and the script is a ping-pong, so the count does not depend
// on how reads coalesce or goroutines interleave.
func TestHostPoolDrawsMatchAcrossFabrics(t *testing.T) {
	draws := func(transport string) uint64 {
		pool := tls12.NewRecordBufPool(8)
		h, err := NewHosted(transport, pool)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hcfg := sessionhost.Config{Name: "server",
			Handler: sessionhost.NewServerHandler(h.PKI.ServerConfig(), Echo)}
		_, srvAddr, err := h.Serve("server", hcfg)
		if err != nil {
			t.Fatal(err)
		}
		hcfg.Name = "mb"
		identity := core.ProcessorFunc(func(_ core.Direction, chunk []byte) ([]byte, error) { return chunk, nil })
		hop, err := h.Middlebox("mb", core.MiddleboxConfig{Mode: core.ClientSide, BufPool: pool,
			NewProcessor: func() core.Processor { return identity }}, hcfg, srvAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := hop.Dial()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.Dial(conn, h.PKI.ClientConfig())
		if err != nil {
			conn.Close()
			t.Fatalf("%s handshake: %v", transport, err)
		}
		sess.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		msg, echo := make([]byte, 1024), make([]byte, 1024)
		for i := 0; i < 16; i++ {
			if _, err := sess.Write(msg); err != nil {
				t.Fatalf("%s write %d: %v", transport, i, err)
			}
			if _, err := io.ReadFull(sess, echo); err != nil {
				t.Fatalf("%s echo %d: %v", transport, i, err)
			}
		}
		sess.Close()
		h.Close() // returns once every handler has: no draw is still to come
		return pool.Stats().Gets
	}
	sim, tcp := draws(TransportNetsim), draws(TransportTCP)
	if sim == 0 || tcp != sim {
		t.Fatalf("host pool draws for one scripted session: netsim %d, tcp %d; want equal and non-zero", sim, tcp)
	}
}
