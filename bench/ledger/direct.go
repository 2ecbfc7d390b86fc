package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/dm"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/disk"
	"siterecovery/internal/transport/tcpnet"
	"siterecovery/internal/txn"
	"siterecovery/internal/wal"
)

// timeOp calls f in growing batches for at least d and returns the mean
// time of one call in nanoseconds.
func timeOp(d time.Duration, f func()) float64 {
	n := 0
	start := time.Now()
	for batch := 1; ; {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
		if batch < 1<<14 {
			batch *= 2
		}
	}
}

// timeOp2 is timeOp from two goroutines at once: the mean time one caller
// waits for one call while the other is calling too.
func timeOp2(d time.Duration, f func(g int)) float64 {
	var wg sync.WaitGroup
	var ns [2]float64
	for g := range ns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns[g] = timeOp(d, func() { f(g) })
		}(g)
	}
	wg.Wait()
	return (ns[0] + ns[1]) / 2
}

func allItems() []proto.Item {
	items := make([]proto.Item, numItems)
	for i := range items {
		items[i] = proto.Item(itemName(i))
	}
	return items
}

// directTimings times public functions of the layer packages in this
// process, one goroutine unless the name ends in _c2, each for at least d.
// They are the floor under the end-to-end numbers: what each layer costs
// with no sockets, no scheduler and no other layer in the way.
func directTimings(m map[string]float64, d time.Duration, scratch string) error {
	ctx := context.Background()
	meta := proto.TxnMeta{ID: 1 << 40, Class: proto.ClassUser, Origin: 1}
	write := proto.WriteReq{Txn: meta, Item: "k01234", Value: 123456789, Mode: proto.CheckSession, Expect: 1}
	prepare := proto.PrepareReq{Txn: meta}

	// proto: the wire codec, per message kind of the write path.
	for _, c := range []struct {
		kind string
		msg  proto.Message
	}{{"write", write}, {"prepare", prepare}} {
		wire, err := proto.EncodeMessage(c.msg)
		if err != nil {
			return err
		}
		m["proto.encode_ns."+c.kind] = timeOp(d, func() { proto.EncodeMessage(c.msg) })
		m["proto.decode_ns."+c.kind] = timeOp(d, func() { proto.DecodeMessage(wire) })
		if c.kind == "write" {
			m["proto.wire_bytes.write"] = float64(len(wire))
			m["proto.allocs_per_roundtrip.write"] = testing.AllocsPerRun(1000, func() {
				b, _ := proto.EncodeMessage(c.msg)
				proto.DecodeMessage(b)
			})
		}
	}

	// tcpnet: an echo Call between two transports over loopback.
	if err := timeTcpnet(m, d, write); err != nil {
		return err
	}

	// lockmgr: the uncontended path, and two goroutines taking turns on one key.
	locks := lockmgr.New(lockmgr.Config{})
	m["lockmgr.acquire_release_ns"] = timeOp(d, func() {
		locks.Acquire(ctx, 1, "x", lockmgr.Exclusive)
		locks.ReleaseAll(1)
	})
	m["lockmgr.handoff_ns"] = timeOp2(d, func(g int) {
		id := proto.TxnID(g + 1)
		locks.Acquire(ctx, id, "x", lockmgr.Exclusive)
		locks.ReleaseAll(id)
	})

	// wal: the in-memory log with no sink. The log never truncates, so a
	// fresh one every 4096 appends keeps the timing about appending.
	rec := wal.Record{Type: wal.RecordCommit, Role: wal.RoleParticipant, Txn: 7, CommitSeq: 9}
	group := []wal.Record{rec, rec, rec, rec}
	log, n := wal.New(), 0
	fresh := func() {
		if n++; n%4096 == 0 {
			log = wal.New()
		}
	}
	m["wal.append_ns"] = timeOp(d, func() { fresh(); log.Append(rec) })
	m["wal.append_group_ns"] = timeOp(d, func() { fresh(); log.AppendGroup(group) })

	// storage: buffer one write and install it, on each engine; the disk
	// engine once with a pool that fits and once with the 8-page pool of
	// oltp-durable, keys uniform so the small pool evicts.
	items := allItems()
	rng := rand.New(rand.NewSource(1))
	var seq uint64
	install := func(e storage.Engine) func() {
		return func() {
			seq++
			id := proto.TxnID(seq)
			e.BufferWrite(id, items[rng.Intn(numItems)], proto.Value(seq))
			e.InstallPending(id, proto.Version{Counter: seq, Writer: id})
		}
	}
	m["storage.mem_install_ns"] = timeOp(d, install(storage.NewMem(1, items, txn.InitialTxn)))
	for _, c := range []struct {
		name string
		pool int
	}{{"storage.disk_install_ns", 0}, {"storage.disk_install_evict_ns", 8}} {
		dir, err := os.MkdirTemp(scratch, "srledger-direct-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		e, err := disk.Open(dir, c.pool, storage.Deps{Site: 1, Items: items, InitialWriter: txn.InitialTxn, Log: wal.New()})
		if err != nil {
			return err
		}
		defer e.Close()
		m[c.name] = timeOp(d, install(e))
		if c.pool == 8 {
			m["storage.disk_read_ns"] = timeOp(d, func() { e.Committed(items[rng.Intn(numItems)]) })
		}
	}

	// dm: one participant's share of a two-write transaction, through
	// dm.Handle, with a sink that counts log forces: in srnode with a
	// statedir each one is a JSON encode, a write and an fsync.
	var sinkCalls int
	plog := wal.New()
	plog.SetSink(func([]wal.Record) { sinkCalls++ })
	store := storage.NewMem(2, append(items, proto.NSItem(1)), txn.InitialTxn)
	if err := store.Seed(proto.NSItem(1), 1); err != nil {
		return err
	}
	mgr := dm.New(dm.Config{Site: 2, Store: store, Locks: lockmgr.New(lockmgr.Config{}), Log: plog}, dm.Callbacks{})
	mgr.SetSession(1)
	var txns int
	var handleErr error
	handle := func(msg proto.Message) {
		if _, err := mgr.Handle(ctx, 1, msg); err != nil && handleErr == nil {
			handleErr = err
		}
	}
	perTxn := timeOp(d, func() {
		txns++
		meta := proto.TxnMeta{ID: proto.TxnID(txns), Class: proto.ClassUser, Origin: 1}
		for i := 0; i < 2; i++ {
			handle(proto.WriteReq{Txn: meta, Item: items[rng.Intn(numItems)], Value: proto.Value(txns), Mode: proto.CheckSession, Expect: 1})
		}
		handle(proto.PrepareReq{Txn: meta})
		handle(proto.CommitReq{Txn: meta, CommitSeq: uint64(txns)})
	})
	if handleErr != nil {
		return fmt.Errorf("dm.Handle: %w", handleErr)
	}
	m["dm.participant_commit_us"] = perTxn / 1000
	m["wal.sink_calls_per_commit"] = float64(sinkCalls) / float64(txns)

	// core: the oltp transaction on the in-process simulated network, the
	// protocol's cost with no codec and no sockets under it.
	placement := map[proto.Item][]proto.SiteID{}
	for _, it := range items {
		placement[it] = []proto.SiteID{1, 2, 3}
	}
	sim, err := core.New(core.Config{Sites: numSites, Placement: placement, LockPolicy: lockmgr.PolicyWoundWait})
	if err != nil {
		return err
	}
	sim.Start()
	defer sim.Stop()
	gen := newTxnGen(1, 0, 0.5)
	var simErr error
	perTxn = timeOp(d, func() {
		req := gen.next()
		err := sim.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			for _, it := range req.Reads {
				if _, err := tx.Read(ctx, it); err != nil {
					return err
				}
			}
			for _, w := range req.Writes {
				if err := tx.Write(ctx, w.Item, w.Value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil && simErr == nil {
			simErr = err
		}
	})
	if simErr != nil {
		return fmt.Errorf("core.Exec: %w", simErr)
	}
	m["core.netsim_commit_us"] = perTxn / 1000
	return nil
}

func timeTcpnet(m map[string]float64, d time.Duration, msg proto.Message) error {
	ctx := context.Background()
	addrs := map[proto.SiteID]string{}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[proto.SiteID(i+1)] = ln.Addr().String()
	}
	echo := func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		return proto.WriteResp{}, nil
	}
	var ts [2]*tcpnet.Transport
	for i := range ts {
		ts[i] = tcpnet.New(tcpnet.Config{Self: proto.SiteID(i + 1), Addrs: addrs, Listener: lns[i], Handler: echo})
		if err := ts[i].Start(); err != nil {
			return err
		}
		defer ts[i].Close()
	}
	var callErr [2]error // one per calling goroutine
	call := func(g int) {
		if _, err := ts[0].Call(ctx, 1, 2, msg); err != nil && callErr[g] == nil {
			callErr[g] = err
		}
	}
	m["tcpnet.call_rtt_us"] = timeOp(d, func() { call(0) }) / 1000
	m["tcpnet.call_rtt_us_c2"] = timeOp2(d, call) / 1000
	if err := errors.Join(callErr[:]...); err != nil {
		return fmt.Errorf("tcpnet.Call: %w", err)
	}
	return nil
}

// fsyncMedian is the median time of n appends of 512 bytes each followed by
// an fsync, in dir: what one log force would cost on the checkout's device,
// which the statedirs on tmpfs do not pay.
func fsyncMedian(dir string, n int) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 512)
	times := make([]time.Duration, n)
	for i := range times {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return percentile(times, 0.5), nil
}
