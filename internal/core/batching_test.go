package core

import (
	"context"
	"fmt"
	"testing"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

// fullPlacement replicates numItems items x1..xN at every one of the 3 sites
// (the test-local stand-in for workload.FullPlacement, which cannot be
// imported here without a cycle).
func fullPlacement(numItems int) map[proto.Item][]proto.SiteID {
	placement := make(map[proto.Item][]proto.SiteID, numItems)
	for i := 1; i <= numItems; i++ {
		placement[proto.Item(fmt.Sprintf("x%d", i))] = []proto.SiteID{1, 2, 3}
	}
	return placement
}

// batchWorkload runs txns user transactions of writes writes each (over the
// items of a FullPlacement catalog) plus one read, returning the total wire
// messages the run cost.
func batchWorkload(t *testing.T, c *Cluster, txns, writes int) int64 {
	t.Helper()
	items := c.Catalog().Items()
	for i := 0; i < txns; i++ {
		i := i
		err := c.Exec(context.Background(), 1, func(ctx context.Context, tx *txn.Tx) error {
			for w := 0; w < writes; w++ {
				item := items[(i+w)%len(items)]
				if err := tx.Write(ctx, item, proto.Value(i*10+w)); err != nil {
					return err
				}
			}
			_, err := tx.Read(ctx, items[i%len(items)])
			return err
		})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	return c.Obs().Sum("net", "sent")
}

func TestReadYourWritesAndConvergence(t *testing.T) {
	c, err := New(Config{Sites: 3, Placement: fullPlacement(4)})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	err = c.Exec(context.Background(), 1, func(ctx context.Context, tx *txn.Tx) error {
		if err := tx.Write(ctx, "x1", 5); err != nil {
			return err
		}
		// The write is buffered, not flushed — the transaction itself must
		// still read its own value.
		if v, err := tx.Read(ctx, "x1"); err != nil || v != 5 {
			return fmt.Errorf("read-your-writes gave (%v, %v), want 5", v, err)
		}
		if err := tx.Write(ctx, "x1", 6); err != nil {
			return err
		}
		if v, err := tx.Read(ctx, "x1"); err != nil || v != 6 {
			return fmt.Errorf("after overwrite read gave (%v, %v), want 6", v, err)
		}
		return tx.Write(ctx, "x2", 7)
	})
	if err != nil {
		t.Fatal(err)
	}

	// The flush installed the final buffered values at every replica.
	for _, site := range c.Sites() {
		for item, want := range map[proto.Item]proto.Value{"x1": 6, "x2": 7} {
			v, _, err := c.Site(site).Store.Committed(item)
			if err != nil || v != want {
				t.Fatalf("site %v %q = (%v, %v), want %v", site, item, v, err, want)
			}
		}
	}
	if ok, bad := c.CertifyOneSR(); !ok {
		t.Fatalf("history not 1SR: %v", bad)
	}
}

// TestCommitCostsOneBatchAndOneDecisionPerSite pins the wire cost of the
// commit path as an absolute count: a 4-write transaction over R = 3 fully
// replicated sites sends every participant one batch message (prepare vote
// piggybacked) and one commit message, whatever W is. The coordinator is a
// participant too, but reaches itself over the local bus, so R-1 of each
// cross the wire; the read is served locally.
func TestCommitCostsOneBatchAndOneDecisionPerSite(t *testing.T) {
	const txns, writes, sites = 20, 4, 3
	c, err := New(Config{Sites: sites, Placement: fullPlacement(4), Seed: 11, Obs: obs.NewHub(obs.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	got := batchWorkload(t, c, txns, writes)
	if want := int64(txns * 2 * (sites - 1)); got != want {
		t.Fatalf("%d txns cost %d wire messages, want %d (R-1 batch + R-1 commit each)", txns, got, want)
	}
}
