// Package siterecovery's benchmark harness: one macro-benchmark per
// experiment (E1–E10, the reproduction's stand-ins for the paper's absent
// tables/figures — see DESIGN.md §6), plus micro-benchmarks of the hot
// protocol paths. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment tables themselves are printed by cmd/srbench.
package siterecovery

import (
	"context"
	"fmt"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/dm"
	"siterecovery/internal/experiments"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/netsim"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/storage"
	"siterecovery/internal/txn"
	"siterecovery/internal/wal"
	"siterecovery/internal/workload"
)

// benchExperiment runs one registered experiment per iteration at Quick
// scale, reporting rows produced.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rows int
	for b.Loop() {
		table, err := r.Run(experiments.Quick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rows = len(table.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE1Availability(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2WriteAvailability(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3RecoveryLatency(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4Identification(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Overhead(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6MultiFailure(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7Certification(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8CopierPolicy(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9ControlCost(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Recycling(b *testing.B)        { benchExperiment(b, "E10") }

// --- micro-benchmarks of the protocol hot paths ---

func benchCluster(b testing.TB, sites, items, degree int) *core.Cluster {
	b.Helper()
	c, err := core.New(core.Config{
		Sites:     sites,
		Placement: workload.UniformPlacement(items, degree, sites, 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	b.Cleanup(c.Stop)
	return c
}

// The hot-path micro-benchmarks take their loop bodies from the constructors
// below, so that TestHotPathAllocCeilings pins the allocations of exactly what
// the benchmarks time.

// answers counts the commit points it is told of: the transaction bodies
// below run answered, and in a Tx of their own, as srnode's POST /txn does,
// and check that each run is answered once.
type answers int

func (a *answers) Answer() { *a++ }

// answeredOnce fails tb unless a was told of exactly one commit since the
// last call.
func (a *answers) answeredOnce(tb testing.TB) {
	if *a != 1 {
		tb.Fatalf("transaction answered %d times, want once", *a)
	}
	*a = 0
}

// txnReadOnly is a single-read user transaction end to end, including the
// implicit session-vector read.
func txnReadOnly(tb testing.TB) func() {
	c := benchCluster(tb, 3, 16, 3)
	item := c.Catalog().Items()[0]
	var a answers
	ctx := txn.WithOwnTx(txn.WithAnswer(context.Background(), &a), new(txn.Tx))
	return func() {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			_, err := tx.Read(ctx, item)
			return err
		})
		if err != nil {
			tb.Fatal(err)
		}
		a.answeredOnce(tb)
	}
}

// txnReadWrite is a read-modify-write transaction with two-phase commit
// across three replicas.
func txnReadWrite(tb testing.TB) func() {
	c := benchCluster(tb, 3, 16, 3)
	item := c.Catalog().Items()[0]
	var a answers
	ctx := txn.WithOwnTx(txn.WithAnswer(context.Background(), &a), new(txn.Tx))
	return func() {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			v, err := tx.Read(ctx, item)
			if err != nil {
				return err
			}
			return tx.Write(ctx, item, v+1)
		})
		if err != nil {
			tb.Fatal(err)
		}
		a.answeredOnce(tb)
	}
}

// lockAcquireRelease is the lock manager's uncontended path.
func lockAcquireRelease(tb testing.TB) func() {
	m := lockmgr.New(lockmgr.Config{})
	ctx := context.Background()
	return func() {
		if err := m.Acquire(ctx, 1, "x", lockmgr.Exclusive); err != nil {
			tb.Fatal(err)
		}
		m.ReleaseAll(1)
	}
}

// servedCtx is the context a served frame's handler runs under, as far as
// the data manager can tell: one with a room (proto.Roomer) its request was
// decoded into and its reply goes into.
type servedCtx struct {
	context.Context
	room proto.Room
}

func (c *servedCtx) Room() *proto.Room { return &c.room }

// participantCommit is one participant's share of a two-write transaction,
// as served frames hand it to the data manager: the batch that buffers and
// prepares both writes, then the decision, each through dm.Handle, each a
// pointer into the room of the context it runs under.
func participantCommit(tb testing.TB) func() {
	store := storage.NewMem(2, []proto.Item{"a", "b", proto.NSItem(1)}, txn.InitialTxn)
	if err := store.Seed(proto.NSItem(1), 1); err != nil {
		tb.Fatal(err)
	}
	m := dm.New(dm.Config{Site: 2, Store: store, Locks: lockmgr.New(lockmgr.Config{}), Log: wal.New()}, dm.Callbacks{})
	m.SetSession(1)
	ctx := &servedCtx{Context: context.Background()}
	ops := []proto.BatchOp{{Item: "a", Value: 1}, {Item: "b", Value: 2}}
	var id proto.TxnID
	return func() {
		id++
		meta := proto.TxnMeta{ID: id, Class: proto.ClassUser, Origin: 1}
		ctx.room.Batch = proto.BatchReq{Txn: meta, Mode: proto.CheckSession, Expect: 1, Ops: ops, Prepare: true}
		if resp, err := m.Handle(ctx, 1, &ctx.room.Batch); err != nil || resp != &ctx.room.BatchResp || !ctx.room.BatchResp.Vote {
			tb.Fatalf("batch: %v %v", resp, err)
		}
		ctx.room.Commit = proto.CommitReq{Txn: meta, CommitSeq: uint64(id)}
		if _, err := m.Handle(ctx, 1, &ctx.room.Commit); err != nil {
			tb.Fatal(err)
		}
	}
}

// sessionVectorRead isolates the paper's per-transaction overhead: an empty
// user transaction does exactly the implicit local read of the nominal
// session vector (n shared locks + n local reads, no messages), then a
// read-only release.
func sessionVectorRead(sites int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		c := benchCluster(tb, sites, 4, 2)
		ctx := context.Background()
		return func() {
			err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
				return nil
			})
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func benchBody(b *testing.B, body func(testing.TB) func()) {
	run := body(b)
	b.ResetTimer()
	for b.Loop() {
		run()
	}
}

func BenchmarkTxnReadOnly(b *testing.B)        { benchBody(b, txnReadOnly) }
func BenchmarkTxnReadWrite(b *testing.B)       { benchBody(b, txnReadWrite) }
func BenchmarkLockAcquireRelease(b *testing.B) { benchBody(b, lockAcquireRelease) }
func BenchmarkParticipantCommit(b *testing.B)  { benchBody(b, participantCommit) }
func BenchmarkSessionVectorRead(b *testing.B) {
	for _, sites := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) { benchBody(b, sessionVectorRead(sites)) })
	}
}

// TestHotPathAllocCeilings holds the five bodies to the allocation counts
// this code reaches, so a map or a closure creeping back onto the path where
// nothing waits fails a test instead of a benchmark nobody reads. The counts
// were 9, 73, 143 and 57 before the lock table stopped allocating and an
// attempt stopped keeping maps, then 21, 26, 67 and 10 before an attempt's
// read cache, view and flush moved into it and a participant stopped making
// a missed-update map per transaction, then 17, 20, 52 and 8 before an
// attempt's own-site operations became typed calls, its scratch and
// contexts stopped being made per attempt, its fan-outs stopped wrapping
// every send, the catalog stopped copying replica lists and a pending set
// stopped growing one doubling at a time, then 3, 3, 17 and 6 before a
// participant's record and pending set came from a pool, its prepare record
// shared the set, a read-only participant's record went back to the pool, a
// BatchReq and a CommitReq went by pointer and a BatchResp into a room, and
// a served request by pointer into its context's room, as tcpnet now hands
// it, and the two transactions ran in a Tx of their own (txn.WithOwnTx).
// What is left is the history recorder's registration, and an empty
// transaction's Tx. The two transactions run answered at their commit
// points, as srnode's POST /txn does, which costs nothing.
// Under the race detector every body still runs through AllocsPerRun, but
// sync.Pool drops what it is given at random there, so an attempt's pooled
// scratch is sometimes made afresh and the counts are compared only without
// it.
func TestHotPathAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(testing.TB) func()
		max  float64
	}{
		{"LockAcquireRelease", lockAcquireRelease, 0},
		{"SessionVectorRead/sites=3", sessionVectorRead(3), 2},
		{"TxnReadOnly", txnReadOnly, 1},
		{"TxnReadWrite", txnReadWrite, 1},
		{"ParticipantCommit", participantCommit, 0},
	} {
		run := c.body(t)
		run() // first use makes what steady state reuses
		if got := testing.AllocsPerRun(200, run); got > c.max && !raceEnabled {
			t.Errorf("%s allocates %.0f times per run, ceiling %.0f", c.name, got, c.max)
		}
	}
}

// BenchmarkRecoveryRoundTrip measures a full crash/recover/current cycle
// with fail-lock identification and 20 missed updates.
func BenchmarkRecoveryRoundTrip(b *testing.B) {
	c, err := core.New(core.Config{
		Sites:     3,
		Placement: workload.FullPlacement(40, 3),
		Identify:  recovery.IdentifyFailLock,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	b.Cleanup(c.Stop)
	ctx := context.Background()
	items := c.Catalog().Items()
	b.ResetTimer()
	for b.Loop() {
		c.Crash(3)
		for i := range 20 {
			item := items[i%len(items)]
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
					return tx.Write(ctx, item, proto.Value(i))
				})
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal(err)
				}
			}
		}
		if _, err := c.Recover(ctx, 3); err != nil {
			b.Fatal(err)
		}
		if err := c.WaitCurrent(ctx, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimRoundTrip measures one simulated RPC.
func BenchmarkNetsimRoundTrip(b *testing.B) {
	n := netsim.New(netsim.Config{})
	n.Register(1, func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		return proto.ProbeResp{Operational: true}, nil
	})
	n.Register(2, func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		return proto.ProbeResp{Operational: true}, nil
	})
	ctx := context.Background()
	b.ResetTimer()
	for b.Loop() {
		if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertifyOneSR measures 1-STG construction + cycle detection on a
// synthetic 2000-transaction history.
func BenchmarkCertifyOneSR(b *testing.B) {
	rec := history.NewRecorder()
	rec.RegisterTxn(1, proto.ClassInitial)
	rec.Commit(1, 0)
	const txns = 2000
	for i := 2; i < txns; i++ {
		id := proto.TxnID(i)
		rec.RegisterTxn(id, proto.ClassUser)
		item := proto.Item(fmt.Sprintf("item-%d", i%37))
		rec.Read(id, item, proto.SiteID(i%3+1), proto.TxnID(max(1, i-37)))
		rec.Write(id, item, proto.SiteID(i%3+1), id)
		rec.Commit(id, uint64(i))
	}
	h := rec.Snapshot()
	b.ResetTimer()
	for b.Loop() {
		if ok, cycle := h.CertifyOneSR(history.DomainDB); !ok {
			b.Fatalf("synthetic history rejected: %v", cycle)
		}
	}
}
