package core

import "net"

// Transport returns the session's underlying transport conn, letting
// connection managers (and fault-injection harnesses) reach below the
// session — e.g. to inspect or kill the first hop.
func (s *Session) Transport() net.Conn { return s.transport }
