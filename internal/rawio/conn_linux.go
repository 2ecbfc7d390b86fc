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
	w.pk.fn = w.pk.peek
	return w
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
	rc syscall.RawConn
	r  op
	w  op
	pk peeker
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
