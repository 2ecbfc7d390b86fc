package node_test

import (
	"context"
	"net"
	"testing"
	"time"

	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

// newTrio starts three nodes over real localhost TCP, each owning a full
// replica of items x and y, all emitting into hub (nil for none).
func newTrio(t *testing.T, hub *obs.Hub) map[proto.SiteID]*node.Node {
	t.Helper()
	const sites = 3
	listeners := make(map[proto.SiteID]net.Listener, sites)
	addrs := make(map[proto.SiteID]string, sites)
	for i := 1; i <= sites; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[proto.SiteID(i)] = ln
		addrs[proto.SiteID(i)] = ln.Addr().String()
	}
	all := []proto.SiteID{1, 2, 3}
	placement := map[proto.Item][]proto.SiteID{"x": all, "y": all}

	nodes := make(map[proto.SiteID]*node.Node, sites)
	for i := 1; i <= sites; i++ {
		id := proto.SiteID(i)
		n, err := node.New(node.Config{
			SiteConfig: node.SiteConfig{
				Site:             id,
				JanitorInterval:  50 * time.Millisecond,
				JanitorStaleAge:  250 * time.Millisecond,
				DetectorDebounce: 20 * time.Millisecond,
				Obs:              hub,
			},
			Sites:     sites,
			Addrs:     addrs,
			Listener:  listeners[id],
			Placement: placement,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes[id] = n
	}
	return nodes
}

func nodeWrite(t *testing.T, n *node.Site, item proto.Item, v proto.Value) {
	t.Helper()
	err := n.Exec(context.Background(), func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, item, v)
	})
	if err != nil {
		t.Fatalf("write %s=%d: %v", item, v, err)
	}
}

func nodeRead(t *testing.T, n *node.Site, item proto.Item) proto.Value {
	t.Helper()
	var got proto.Value
	err := n.Exec(context.Background(), func(ctx context.Context, tx *txn.Tx) error {
		v, err := tx.Read(ctx, item)
		got = v
		return err
	})
	if err != nil {
		t.Fatalf("read %s: %v", item, err)
	}
	return got
}

func TestTrioCommitCrashRecover(t *testing.T) {
	nodes := newTrio(t, nil)
	ctx := context.Background()

	// A read-write transaction coordinated by node 1 replicates everywhere.
	err := nodes[1].Exec(ctx, func(ctx context.Context, tx *txn.Tx) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		return tx.Write(ctx, "x", v+41)
	})
	if err != nil {
		t.Fatalf("read-write txn: %v", err)
	}
	if got := nodeRead(t, nodes[2].Site, "x"); got != 41 {
		t.Fatalf("x at node 2 = %d, want 41", got)
	}

	// Crash node 3. The next write discovers the crash; the failure
	// detector's type-2 claim then excludes it, and writes proceed on the
	// survivors.
	nodes[3].Crash()
	writeUntilExcluded(t, nodes[1].Site, "x", 100)
	nodeWrite(t, nodes[1].Site, "y", 7)

	// Recover node 3: type-1 control transaction, then copiers.
	report, err := nodes[3].Recover(ctx)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report.Session <= node.InitialSession {
		t.Fatalf("new session = %d, want > %d", report.Session, node.InitialSession)
	}
	if !nodes[3].Operational() {
		t.Fatal("node 3 not operational after recovery")
	}
	wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := nodes[3].WaitCurrent(wctx); err != nil {
		t.Fatalf("WaitCurrent: %v", err)
	}

	// The recovered node serves current data from its local copies.
	if got := nodeRead(t, nodes[3].Site, "x"); got != 100 {
		t.Fatalf("x at recovered node = %d, want 100", got)
	}
	if got := nodeRead(t, nodes[3].Site, "y"); got != 7 {
		t.Fatalf("y at recovered node = %d, want 7", got)
	}
}
