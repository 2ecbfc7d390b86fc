package node_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"siterecovery/internal/lockmgr"
	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
	"siterecovery/internal/txn"
)

// vetoAt3 wraps site 3's handler so that a batch writing 1 to a worker's
// veto item is served and then voted down.
func vetoAt3(h transport.Handler) transport.Handler {
	return func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		resp, err := h(ctx, from, msg)
		if br, ok := proto.As[proto.BatchReq](msg); ok && err == nil && slices.ContainsFunc(br.Ops, func(op proto.BatchOp) bool {
			return strings.HasPrefix(string(op.Item), "veto") && op.Value == 1
		}) {
			return proto.BatchResp{Vote: false}, nil
		}
		return resp, err
	}
}

// TestReusedAttemptStateStaysPrivate runs transactions concurrently through
// site 1's and site 2's coordinators, and so through every site's participant
// path, over TCP with a hub: read-only ones, read-write ones, ones whose first
// attempt site 3 votes down, and ones whose body keeps its *txn.Tx. Attempts
// reuse pooled scratch and tcpnet its calls and reply channels, so this
// checks that none of it leaks between transactions or attempts: each worker
// owns its items,
// and every read sees the worker's own last commit or the attempt's own
// write, never another's; a vetoed attempt's write set is never seen; and a
// Tx kept past its commit answers ErrTxnFinished.
func TestReusedAttemptStateStaysPrivate(t *testing.T) {
	const (
		workers  = 6
		items    = 3 // per worker
		rounds   = 40
		vetoEach = 10 // every vetoEach-th round writes the worker's veto item too
	)
	all := []proto.SiteID{1, 2, 3}
	placement := map[proto.Item][]proto.SiteID{}
	item := func(w, i int) proto.Item { return proto.Item(fmt.Sprintf("w%d.%d", w, i)) }
	veto := func(w int) proto.Item { return proto.Item(fmt.Sprintf("veto%d", w)) }
	for w := range workers {
		placement[veto(w)] = all
		for i := range items {
			placement[item(w, i)] = all
		}
	}
	sites := newTrioOver(t, placement, obs.NewHub(obs.Options{}), lockmgr.PolicyWoundWait, node.Hooks{}, nil, vetoAt3)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		coord := sites[proto.SiteID(1+w%2)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				ctx := context.Background()
				committed := make([]proto.Value, items) // what this worker last committed to each item
				// check reads every item of the worker's inside tx: the
				// committed value, or want[i] once the transaction wrote it.
				check := func(ctx context.Context, tx *txn.Tx, want []proto.Value) error {
					for i := range items {
						v, err := tx.Read(ctx, item(w, i))
						if err != nil {
							return err
						}
						if v != want[i] {
							return fmt.Errorf("worker %d txn %v read %s = %d, want %d", w, tx.ID(), item(w, i), v, want[i])
						}
					}
					return nil
				}
				for r := range rounds {
					next := make([]proto.Value, items)
					for i := range next {
						next[i] = proto.Value(w*1_000_000 + r*items + i + 1)
					}
					var kept *txn.Tx
					vetoed := r%vetoEach == vetoEach-1
					attempts := 0
					err := coord.Exec(ctx, func(ctx context.Context, tx *txn.Tx) error {
						kept = tx
						attempts++
						if err := check(ctx, tx, committed); err != nil {
							return err
						}
						if r%3 == 0 {
							return nil // read-only
						}
						for i := range items {
							if err := tx.Write(ctx, item(w, i), next[i]); err != nil {
								return err
							}
						}
						if vetoed {
							if err := tx.Write(ctx, veto(w), proto.Value(attempts)); err != nil {
								return err
							}
						}
						return check(ctx, tx, next) // read-your-writes
					})
					switch {
					case err != nil:
						return fmt.Errorf("worker %d round %d: %w", w, r, err)
					case vetoed && r%3 != 0 && attempts < 2:
						return fmt.Errorf("worker %d round %d: committed in %d attempts; the first was voted down", w, r, attempts)
					case r%3 != 0:
						committed = next
					}
					if _, err := kept.Read(ctx, item(w, 0)); !errors.Is(err, proto.ErrTxnFinished) {
						return fmt.Errorf("worker %d round %d: Read on a finished Tx = %v, want ErrTxnFinished", w, r, err)
					}
					if err := kept.Write(ctx, item(w, 0), 0); !errors.Is(err, proto.ErrTxnFinished) {
						return fmt.Errorf("worker %d round %d: Write on a finished Tx = %v, want ErrTxnFinished", w, r, err)
					}
				}
				// Every site's copies hold the worker's last commit: a read
				// waits for a posted decision still on its way.
				for _, s := range sites {
					if err := s.Exec(ctx, func(ctx context.Context, tx *txn.Tx) error { return check(ctx, tx, committed) }); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
