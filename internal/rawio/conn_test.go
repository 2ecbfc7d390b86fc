package rawio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// pair returns the two ends of a loopback TCP connection, each wrapped.
func pair(t *testing.T) (client, server net.Conn) {
	c, s := tcpPair(t)
	return Wrap(c), Wrap(s)
}

// tcpPair returns the two ends of a loopback TCP connection, closed when the
// test ends.
func tcpPair(t *testing.T) (client, server *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		t.FailNow()
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

func TestWrapsTCPOnLinux(t *testing.T) {
	c, _ := pair(t)
	_, plain := c.(*net.TCPConn)
	if want := runtime.GOOS == "linux"; plain == want {
		t.Fatalf("TCP end wrapped = %v on %s, want %v", !plain, runtime.GOOS, want)
	}
}

func TestPipeEndIsNotWrapped(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if Wrap(a) != a {
		t.Fatal("a net.Pipe end came back wrapped")
	}
}

func TestDataThenEOF(t *testing.T) {
	c, s := pair(t)
	if n, err := c.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadAll = %q, %v; want \"hello\", nil", got, err)
	}
	if n, err := s.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("Read after EOF = %d, %v; want 0, io.EOF", n, err)
	}
}

func TestReadDeadline(t *testing.T) {
	_, s := pair(t)
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := s.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past its deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Read past its deadline = %v, want a net.Error that times out", err)
	}
}

func TestWriteDeadline(t *testing.T) {
	tc, _ := tcpPair(t) // nobody reads the other end
	tc.SetWriteBuffer(4096)
	c := Wrap(tc)
	c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	n, err := c.Write(make([]byte, 16<<20))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Write past its deadline = %d, %v; want os.ErrDeadlineExceeded", n, err)
	}
	if n <= 0 || n >= 16<<20 {
		t.Fatalf("Write past its deadline wrote %d bytes, want part of 16 MiB", n)
	}
}

func TestCloseUnparksRead(t *testing.T) {
	_, s := pair(t)
	done := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Read park in the poller
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Read on a closed conn = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unpark the Read")
	}
	if _, err := s.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Write on a closed conn = %v, want net.ErrClosed", err)
	}
}

// A write larger than the send buffer meets EAGAIN, waits and resumes where
// it stopped, so a slow reader still gets every byte in order.
func TestLargeWriteToSlowReader(t *testing.T) {
	tc, ts := tcpPair(t)
	tc.SetWriteBuffer(4096)
	c, s := Wrap(tc), Wrap(ts)
	want := make([]byte, 4<<20)
	for i := range want {
		want[i] = byte(i * 7 / 5)
	}
	got := make(chan []byte, 1)
	go func() {
		var b bytes.Buffer
		buf := make([]byte, 64<<10)
		for i := 0; ; i++ {
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
			n, err := s.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		got <- b.Bytes()
	}()
	if n, err := c.Write(want); n != len(want) || err != nil {
		t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(want))
	}
	c.Close()
	if b := <-got; !bytes.Equal(b, want) {
		t.Fatalf("reader got %d bytes, not the %d written in order", len(b), len(want))
	}
}

func TestReadWriteAllocateNothing(t *testing.T) {
	c, s := pair(t)
	msg, buf := []byte("ping"), make([]byte, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Write and a Read allocate %v times, want 0", allocs)
	}
}

// PeerClosed tells an idle connection from one whose peer has gone, and
// consumes nothing: bytes waiting ahead of the end of stream mean open.
func TestPeerClosed(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("PeerClosed peeks only on Linux")
	}
	c, s := pair(t)
	if PeerClosed(c) {
		t.Fatal("PeerClosed on an idle open connection = true")
	}
	if _, err := s.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	waitFor(t, func() bool { return !PeerClosed(c) }, "with a byte waiting")
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil || buf[0] != 'x' {
		t.Fatalf("the peeked byte read back as %q, %v", buf, err)
	}
	waitFor(t, func() bool { return PeerClosed(c) }, "after the peer's close")
	c.Close()
	if !PeerClosed(c) {
		t.Fatal("PeerClosed on a connection closed on this side = false")
	}
}

// waitFor polls cond for up to 5 s: a close reaches the other end of a
// loopback connection soon, not at once.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("PeerClosed wrong %s", what)
		}
	}
}

func TestPeerClosedUnwrappedIsFalse(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	defer a.Close()
	if PeerClosed(a) {
		t.Fatal("PeerClosed on a connection Wrap leaves alone = true")
	}
}

func TestPeerClosedAllocatesNothing(t *testing.T) {
	c, _ := pair(t)
	if allocs := testing.AllocsPerRun(100, func() { PeerClosed(c) }); allocs != 0 {
		t.Fatalf("PeerClosed allocates %v times, want 0", allocs)
	}
}

// TryWrite writes what the send buffer takes and never waits: into a buffer
// nobody drains it soon writes nothing, the rest a Write sends once the
// reader catches up, and every byte arrives once, in order.
func TestTryWriteNeverWaits(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("TryWrite writes only on Linux")
	}
	tc, ts := tcpPair(t)
	tc.SetWriteBuffer(4096)
	c, s := Wrap(tc), Wrap(ts)
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 64)
	var sent bytes.Buffer
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := TryWrite(c, chunk)
		sent.Write(chunk[:n])
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TryWrite still writing after %d bytes nobody read", sent.Len())
		}
	}
	if sent.Len() == 0 {
		t.Fatal("TryWrite into an empty send buffer wrote nothing")
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(s)
		got <- b
	}()
	if _, err := c.Write(chunk); err != nil { // waits for the reader
		t.Fatal(err)
	}
	sent.Write(chunk)
	c.Close()
	if b := <-got; !bytes.Equal(b, sent.Bytes()) {
		t.Fatalf("reader got %d bytes, not the %d written in order", len(b), sent.Len())
	}
}

func TestTryWriteUnwrappedWritesNothing(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if n := TryWrite(a, []byte("x")); n != 0 {
		t.Fatalf("TryWrite on a connection Wrap leaves alone = %d, want 0", n)
	}
}

func TestTryWriteAllocatesNothing(t *testing.T) {
	c, s := pair(t)
	msg, buf := []byte("ping"), make([]byte, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if n := TryWrite(c, msg); n != len(msg) && runtime.GOOS == "linux" {
			t.Fatalf("TryWrite into an empty buffer = %d, want %d", n, len(msg))
		} else if n == 0 {
			c.Write(msg)
		}
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a TryWrite and a Read allocate %v times, want 0", allocs)
	}
}
