//go:build !linux

package rawio

import "net"

// Wrap returns c: outside Linux every connection keeps net's own path.
func Wrap(c net.Conn) net.Conn { return c }

// PeerClosed reports false: outside Linux nothing is peeked, and a closed
// peer shows when the connection is next read.
func PeerClosed(net.Conn) bool { return false }
