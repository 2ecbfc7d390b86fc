//go:build linux && !386

package rawio

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
)

// Wrap returns c with Read and Write on raw syscalls when c is a
// *net.TCPConn, and c itself otherwise. The wrapper owns nothing: closing
// either it or c closes the one socket, and deadlines set on either apply to
// both.
func Wrap(c net.Conn) net.Conn {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return c
	}
	w := &conn{Conn: c, rc: rc}
	w.r.fn = w.r.read
	w.w.fn = w.w.write
	w.try = w.w.writeOnce
	w.pk.fn = w.pk.peek
	return w
}

// TryWrite writes what of p the send buffer of c takes at once, with one
// non-blocking write(2), and reports how many bytes that was: 0 when the
// buffer is full, when the write fails (a later Write of the rest reports
// the error), and for a connection Wrap returned unchanged, which cannot
// write without waiting. It never waits and allocates nothing.
func TryWrite(c net.Conn, p []byte) int {
	w, ok := c.(*conn)
	if !ok || len(p) == 0 {
		return 0
	}
	w.w.mu.Lock()
	defer w.w.mu.Unlock()
	w.w.p, w.w.n, w.w.errno = p, 0, 0
	w.rc.Write(w.try) // its error, like errno, is the next Write's to report
	w.w.p = nil
	return w.w.n
}

// PeerClosed reports whether the peer of c has closed or reset the
// connection, as far as one non-blocking MSG_PEEK at the head of its receive
// queue can tell: end of stream there, a socket error, or a connection
// already closed on this side. Bytes waiting to be read, or none yet, mean
// open. It consumes nothing, never waits and allocates nothing; for a
// connection Wrap returned unchanged it reports false.
func PeerClosed(c net.Conn) bool {
	w, ok := c.(*conn)
	if !ok {
		return false
	}
	p := &w.pk
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := w.rc.Control(p.fn); err != nil {
		return true
	}
	switch p.errno {
	case 0:
		return p.n == 0
	case syscall.EAGAIN:
		return false
	default:
		return true
	}
}

// conn is a wrapped TCP connection. Its methods other than Read and Write
// are the TCP connection's own.
type conn struct {
	net.Conn
	rc  syscall.RawConn
	r   op
	w   op
	try func(fd uintptr) bool // w.writeOnce, bound once
	pk  peeker
}

// op is one direction of a conn: the callback RawConn runs, bound once so a
// call allocates nothing, and the arguments and results of the call in
// progress, which mu gives to one caller at a time.
type op struct {
	mu    sync.Mutex
	fn    func(fd uintptr) bool
	p     []byte
	n     int
	errno syscall.Errno
}

func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	c.r.p, c.r.n, c.r.errno = p, 0, 0
	err := c.rc.Read(c.r.fn)
	c.r.p = nil
	if err == nil && c.r.errno == 0 && c.r.n == 0 {
		return 0, io.EOF
	}
	return c.r.n, c.opError("read", err, c.r.errno)
}

// Write writes all of p unless an error stops it, waiting for the socket to
// drain whenever its send buffer is full, as net's own Write does.
func (c *conn) Write(p []byte) (int, error) {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	c.w.p, c.w.n, c.w.errno = p, 0, 0
	err := c.rc.Write(c.w.fn)
	c.w.p = nil
	return c.w.n, c.opError("write", err, c.w.errno)
}

// peeker is PeerClosed's state: the callback RawConn.Control runs, bound
// once, its one-byte buffer and its result, which mu gives to one caller at
// a time.
type peeker struct {
	mu    sync.Mutex
	fn    func(fd uintptr)
	b     [1]byte
	n     int
	errno syscall.Errno
}

func (p *peeker) peek(fd uintptr) {
	for {
		if p.n, p.errno = sysPeek(fd, p.b[:]); p.errno != syscall.EINTR {
			return
		}
	}
}

// read makes one read(2) into p. It returns false, to wait for the socket to
// become readable, only on EAGAIN.
func (o *op) read(fd uintptr) bool {
	for {
		n, errno := sysRead(fd, o.p)
		switch errno {
		case 0:
			o.n = n
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			o.errno = errno
			return true
		}
	}
}

// write writes p from offset n on until all of it is written or write(2)
// fails. It returns false, to wait for room in the send buffer and resume at
// n, only on EAGAIN.
func (o *op) write(fd uintptr) bool {
	for o.n < len(o.p) {
		n, errno := sysWrite(fd, o.p[o.n:])
		switch errno {
		case 0:
			o.n += n
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			o.errno = errno
			return true
		}
	}
	return true
}

// writeOnce makes one write(2) of p, again only on EINTR, and never asks
// to wait.
func (o *op) writeOnce(fd uintptr) bool {
	for {
		n, errno := sysWrite(fd, o.p)
		switch errno {
		case 0:
			o.n = n
			return true
		case syscall.EINTR:
		default:
			o.errno = errno
			return true
		}
	}
}

// opError gives a failed call net's shape: a *net.OpError naming the
// operation and both ends, over the cause errors.Is looks for — net.ErrClosed
// or os.ErrDeadlineExceeded from the poller, or the *os.SyscallError of
// errno. It returns nil when the call did not fail.
func (c *conn) opError(op string, err error, errno syscall.Errno) error {
	switch {
	case err != nil:
		if oe, ok := err.(*net.OpError); ok { // RawConn's own, op "raw-read" or "raw-write"
			err = oe.Err
		}
	case errno != 0:
		err = os.NewSyscallError(op, errno)
	default:
		return nil
	}
	return &net.OpError{Op: op, Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: err}
}
