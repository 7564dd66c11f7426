//go:build linux

package tcpx

import (
	"net"
	"syscall"
)

// soReusePort is SO_REUSEPORT's option number on Linux. The syscall
// package on some toolchains omits the constant, so it is pinned here;
// the value has been 15 since the option appeared in Linux 3.9.
const soReusePort = 0xf

// reusePortSupported reports that ListenShards can bind several
// listeners on one address on this platform.
const reusePortSupported = true

// listenTCP binds addr, setting SO_REUSEPORT before bind when asked so
// several listeners can share the address (the kernel hashes incoming
// connections across them).
func listenTCP(addr string, reusePort bool) (net.Listener, error) {
	var lc net.ListenConfig
	if reusePort {
		lc.Control = func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			})
			if err != nil {
				return err
			}
			return serr
		}
	}
	return listenContextFree(lc, addr)
}
