// Package freeport hands the process harnesses (the srnode e2e test, srload's
// TCP cluster, chaos/proc) localhost addresses for the child processes they
// spawn.
package freeport

import (
	"fmt"
	"net"
	"os"
	"sync"
)

// Ports are drawn from 20000–29999, below the kernel's ephemeral range
// (32768 up on Linux), walking from a point the pid picks so that harnesses
// running side by side start apart.
const lo, hi = 20000, 30000

var (
	mu   sync.Mutex
	next = lo + os.Getpid()*37%(hi-lo)
)

// Addr reserves a localhost port by binding and releasing it; the child
// rebinds it. Binding port 0 would not do: the kernel then picks an
// ephemeral port, and between the release and the child's bind any outgoing
// connection on the host — the harness's own polling, a sibling srnode's
// dial — can be given the same number, so the child dies with "address
// already in use" (about one spawn-heavy test run in five).
func Addr() (string, error) {
	mu.Lock()
	defer mu.Unlock()
	var lastErr error
	for try := 0; try < 1000; try++ {
		port := next
		if next++; next >= hi {
			next = lo
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			lastErr = err
			continue
		}
		addr := ln.Addr().String()
		return addr, ln.Close()
	}
	return "", fmt.Errorf("no free port in %d-%d: %w", lo, hi-1, lastErr)
}
