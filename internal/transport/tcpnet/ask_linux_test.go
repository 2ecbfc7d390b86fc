package tcpnet

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"siterecovery/internal/proto"
)

// hangingAddr returns the address of a socket that listens with a backlog of
// 0 and never accepts, its one queue slot already taken: Linux drops the
// SYN of every later connect, so a dial to it waits until its deadline or
// its context ends it.
func hangingAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	first := New(Config{Self: 1, Addrs: map[proto.SiteID]string{2: addr}, DialRetries: 1})
	t.Cleanup(func() { first.Close() })
	if _, _, err := first.getPeer(first.baseCtx, 2, 0); err != nil { // takes the slot
		t.Fatal(err)
	}
	return addr
}

// An ask's dial is counted in the transport's wait group: Close, which ends
// the dial through the transport's context, returns only once the ask's
// goroutine has. On one P the goroutine Close wakes runs only once Close
// blocks, so one Close did not wait for is still there when it returns.
func TestCloseWaitsForAnAsksDial(t *testing.T) {
	tr := New(Config{Self: 1, Addrs: map[proto.SiteID]string{2: hangingAddr(t)}, DialTimeout: time.Minute})
	oneProc(t)
	tr.AskPeers()
	waitUntil(t, "the ask is dialing", func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.dialing[2] != nil
	})
	tr.Close()
	if left := leftRunning("tcpnet.(*Transport).ask("); left != "" {
		t.Fatalf("an ask's dial outlived Close:\n%s", left)
	}
}
