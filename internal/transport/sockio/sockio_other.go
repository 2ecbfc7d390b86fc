//go:build !linux

package sockio

import "net"

// Wrap returns c: outside Linux every connection keeps net's own path.
func Wrap(c net.Conn) net.Conn { return c }
