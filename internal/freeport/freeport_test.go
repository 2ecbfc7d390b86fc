package freeport

import (
	"net"
	"strconv"
	"testing"
)

func TestAddrsAreDistinctBindableAndBelowTheEphemeralRange(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 20; i++ {
		addr, err := Addr()
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("%s handed out twice", addr)
		}
		seen[addr] = true
		_, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatal(err)
		}
		if port, _ := strconv.Atoi(portStr); port < lo || port >= hi {
			t.Fatalf("port %d outside %d-%d", port, lo, hi-1)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("cannot rebind %s: %v", addr, err)
		}
		defer ln.Close() // hold it, so a later Addr must step past a taken port
	}
}
