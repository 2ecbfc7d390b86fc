//go:build !linux || 386

package rawio

import "net"

// Wrap returns c: outside Linux, and on linux/386, where sockets go through
// socketcall and there is no recvfrom syscall to peek with, every connection
// keeps net's own path.
func Wrap(c net.Conn) net.Conn { return c }

// PeerClosed reports false: here nothing is peeked, and a closed peer shows
// when the connection is next read.
func PeerClosed(net.Conn) bool { return false }
