package node_test

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"siterecovery/internal/node"
	"siterecovery/internal/proto"
)

// retainedBy reports the heap a node over n fully replicated items holds
// once it is assembled: the live heap after node.New less the live heap
// before it, the placement it is given (and its item names) already made.
func retainedBy(t *testing.T, n int) int64 {
	t.Helper()
	all := []proto.SiteID{1, 2, 3}
	placement := make(map[proto.Item][]proto.SiteID, n)
	for i := 0; i < n; i++ {
		placement[proto.Item(fmt.Sprintf("k%06d", i))] = all
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and what sync.Pools kept from the first
	runtime.ReadMemStats(&before)
	nd, err := node.New(node.Config{
		SiteConfig: node.SiteConfig{Site: 1},
		Sites:      3,
		Addrs:      map[proto.SiteID]string{1: "127.0.0.1:1", 2: "127.0.0.1:2", 3: "127.0.0.1:3"},
		Placement:  placement,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nd)
	runtime.KeepAlive(placement)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestSiteHeapPerItem pins what a site keeps per item it holds: the
// catalog's number and replica set for it and the mem table's slot. The
// difference between two item counts cancels what a site holds whatever
// its items. It measures in a process of its own: the goroutines of
// earlier tests, still winding down, move the live heap by more than that.
func TestSiteHeapPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	if os.Getenv("SITE_HEAP_PER_ITEM") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSiteHeapPerItem$", "-test.v")
		cmd.Env = append(os.Environ(), "SITE_HEAP_PER_ITEM=1")
		out, err := cmd.CombinedOutput()
		t.Logf("%s", out)
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	const small, large = 4096, 8192
	per := (retainedBy(t, large) - retainedBy(t, small)) / (large - small)
	t.Logf("retained heap per item: %d B", per)
	if per > 80 {
		t.Fatalf("a site retains %d B of heap per item, want at most 80", per)
	}
}
