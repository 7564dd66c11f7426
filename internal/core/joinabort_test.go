package core_test

import (
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// hangUpOnReply is a client transport that hangs up as soon as the
// first byte of the middlebox's reply arrives: the client has sent its
// hello, the middlebox has joined, and the handshake is cut short.
type hangUpOnReply struct {
	net.Conn
	once sync.Once
}

func (c *hangUpOnReply) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.once.Do(func() { c.Conn.Close() })
		return 0, net.ErrClosed
	}
	return n, err
}

// TestJoinAbortIsAFault pins how a middlebox ends a session whose
// client goes away mid-handshake: with a transport-failure class, so a
// session host counts it failed, however the hang-up reached the
// relay. Over TCP a client's reset is one error that the first syscall
// to meet it takes; when that is the relay's write toward the client,
// the read from it sees EOF — here the client closes outright, and the
// relay reads EOF. Both used to end the session as a clean close.
func TestJoinAbortIsAFault(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "mb.example", core.ClientSide)
	left, right := netsim.Pipe()
	upL, upR := netsim.Pipe()
	mbDone := make(chan error, 1)
	go func() { mbDone <- mb.Handle(right, upL) }()
	go func() {
		if sess, err := core.Accept(upR, e.serverConfig()); err == nil {
			sess.Close()
		}
	}()
	if _, err := core.Dial(&hangUpOnReply{Conn: left}, e.clientConfig()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial = %v, want the hang-up", err)
	}
	err := <-mbDone
	if cls := core.ClassifyError(err); cls != core.ClassReset {
		t.Fatalf("middlebox ended the aborted join with %v (class %s), want class reset", err, cls)
	}
	upR.Close()
}
