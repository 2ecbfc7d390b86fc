package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/rawio/rawiotest"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/enginetest"
	"siterecovery/internal/wal"
)

func openT(t *testing.T, dir string, poolPages int, log *wal.Log, items ...proto.Item) *Engine {
	t.Helper()
	e, err := Open(dir, poolPages, storage.Deps{
		Site: 3, Items: items, InitialWriter: 1, Log: log,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { e.heap.file.Close() })
	return e
}

// openLog opens the log in dir the way srnode opens its statedir. Opening it
// again over the same dir, with the engine dropped unflushed and the first
// log never closed, is srnode's restart after a SIGKILL.
func openLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	log, err := wal.Open(dir, func(err error) { t.Errorf("wal persist: %v", err) })
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestDiskConformance runs the table battery with heap files in t.TempDir(),
// and again under "shm" with them on a memory file system, where page I/O
// takes raw syscalls.
func TestDiskConformance(t *testing.T) {
	run := func(t *testing.T, newDir func(testing.TB) string) {
		enginetest.Run(t, func(t *testing.T, d storage.Deps) storage.Table {
			tb, err := openTable(newDir(t), 4, d.Log, d.Numbers())
			if err != nil {
				t.Fatalf("openTable: %v", err)
			}
			t.Cleanup(func() { tb.file.Close() })
			return tb
		})
	}
	run(t, testing.TB.TempDir)
	t.Run("shm", func(t *testing.T) {
		rawiotest.MemDir(t) // skips where there is none
		run(t, rawiotest.MemDir)
	})
}

func TestOpenRequiresLog(t *testing.T) {
	if _, err := Open(t.TempDir(), 4, storage.Deps{Site: 1}); err == nil {
		t.Fatal("Open without a WAL succeeded")
	}
}

// TestFlushReopen round-trips committed state through the heap file alone:
// a clean flush followed by a reopen against an empty WAL must serve the
// same values with zero redo.
func TestFlushReopen(t *testing.T) {
	dir := t.TempDir()
	log := wal.New()
	e := openT(t, dir, 4, log, "x", "y")
	ver := proto.Version{Counter: 7, Writer: 5}
	if _, err := e.InstallDirect("x", 100, ver); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a FRESH empty log: everything must come off the heap file.
	re := openT(t, dir, 4, wal.New(), "x", "y")
	if v, gotVer, err := re.Committed("x"); err != nil || v != 100 || gotVer != ver {
		t.Fatalf("reopened Committed(x) = %d %v %v", v, gotVer, err)
	}
	st := re.Stats()
	if st.RedoApplied != 0 || st.CorruptPages != 0 {
		t.Fatalf("clean reopen stats = %+v", st)
	}
}

// TestRedoRecovery is the ARIES-lite story: installs that never reach the
// heap file (no flush — the "process" dies) are rebuilt from the WAL's
// physical redo records at the next open.
func TestRedoRecovery(t *testing.T) {
	rawiotest.Run(t, testRedoRecovery)
}

func testRedoRecovery(t *testing.T, dir string) {
	log := openLog(t, dir)
	e := openT(t, dir, 4, log, "x", "y")
	if err := e.BufferWrite(9, "x", 41); err != nil {
		t.Fatal(err)
	}
	if err := e.BufferWrite(9, "y", 42); err != nil {
		t.Fatal(err)
	}
	ver := proto.Version{Counter: 3, Writer: 9}
	if _, err := e.InstallPending(9, ver); err != nil {
		t.Fatal(err)
	}
	// No Flush, no Close: the engine is simply dropped, like SIGKILL.

	if n := log.DurableLSN(); n != 1 {
		t.Fatalf("the install forced %d records, want one redo record", n)
	}

	re := openT(t, dir, 4, openLog(t, dir), "x", "y")
	if v, gotVer, err := re.Committed("x"); err != nil || v != 41 || gotVer != ver {
		t.Fatalf("redone Committed(x) = %d %v %v", v, gotVer, err)
	}
	if v, _, _ := re.Committed("y"); v != 42 {
		t.Fatalf("redone Committed(y) = %d", v)
	}
	if st := re.Stats(); st.RedoApplied != 2 {
		t.Fatalf("RedoApplied = %d, want 2", st.RedoApplied)
	}

	// A third open after a flush skips the now-stale records.
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	again := openT(t, dir, 4, openLog(t, dir), "x", "y")
	if st := again.Stats(); st.RedoApplied != 0 || st.RedoSkipped != 2 {
		t.Fatalf("post-flush stats = %+v, want 2 skipped", st)
	}
}

// TestRedoNonMonotoneVersions replays installs whose versions are NOT
// numerically increasing, the shape session claims produce: a type-2
// exclusion writes "site down" with a high commit sequence, then the
// excluded site's type-1 claim writes "site up" with its own (lower)
// sequence, and 2PC installs both in commit order. Redo must reproduce
// log order — last record wins — not pick the numerically larger version,
// or a restarted site resurrects the stale "down" marker and its copiers
// skip every live peer.
func TestRedoNonMonotoneVersions(t *testing.T) {
	rawiotest.Run(t, testRedoNonMonotoneVersions)
}

func testRedoNonMonotoneVersions(t *testing.T, dir string) {
	e := openT(t, dir, 4, openLog(t, dir), "ns-2")
	if err := e.BufferWrite(50, "ns-2", -1); err != nil { // exclusion: down
		t.Fatal(err)
	}
	if _, err := e.InstallPending(50, proto.Version{Counter: 9, Writer: 50}); err != nil {
		t.Fatal(err)
	}
	if err := e.BufferWrite(7, "ns-2", 4); err != nil { // claim: up, session 4
		t.Fatal(err)
	}
	if _, err := e.InstallPending(7, proto.Version{Counter: 2, Writer: 7}); err != nil {
		t.Fatal(err)
	}

	// Live state: the later, numerically smaller version won.
	if v, ver, err := e.Committed("ns-2"); err != nil || v != 4 || ver != (proto.Version{Counter: 2, Writer: 7}) {
		t.Fatalf("live Committed = %d %v %v", v, ver, err)
	}

	// SIGKILL: drop the engine, replay what the log file kept.
	re := openT(t, dir, 4, openLog(t, dir), "ns-2")
	if v, ver, err := re.Committed("ns-2"); err != nil || v != 4 || ver != (proto.Version{Counter: 2, Writer: 7}) {
		t.Fatalf("redone Committed = %d %v %v", v, ver, err)
	}
}

// TestEvictionSpansPages fills several pages through a one-frame pool so
// every access churns the pool; values must survive the evict/flush/reload
// cycle.
func TestEvictionSpansPages(t *testing.T) {
	var items []proto.Item
	for i := 0; i < 300; i++ {
		items = append(items, proto.Item(fmt.Sprintf("item-%03d", i)))
	}
	log := wal.New()
	e := openT(t, t.TempDir(), 1, log, items...)
	for i, item := range items {
		if _, err := e.InstallDirect(item, proto.Value(i), proto.Version{Counter: 1, Writer: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i, item := range items {
		if v, _, err := e.Committed(item); err != nil || v != proto.Value(i) {
			t.Fatalf("Committed(%s) = %d %v, want %d", item, v, err, i)
		}
	}
	st := e.Stats()
	if st.Pages < 2 {
		t.Fatalf("expected multiple heap pages, got %d", st.Pages)
	}
	if st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("one-frame pool never evicted/flushed: %+v", st)
	}
}

// TestRestartReplaysTheSink is srnode's SIGKILL restart: installs across
// evictions of a one-frame pool, the engine dropped unflushed, the log file
// reopened, and the engine with it. Every value comes back, and once Open
// has replayed the redo the log no longer holds it.
func TestRestartReplaysTheSink(t *testing.T) {
	rawiotest.Run(t, testRestartReplaysTheSink)
}

func testRestartReplaysTheSink(t *testing.T, dir string) {
	var items []proto.Item
	for i := 0; i < 300; i++ {
		items = append(items, proto.Item(fmt.Sprintf("item-%03d", i)))
	}
	e := openT(t, dir, 1, openLog(t, dir), items...)
	for i, item := range items {
		if _, err := e.InstallDirect(item, proto.Value(i+1000), proto.Version{Counter: uint64(i + 1), Writer: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Evictions == 0 {
		t.Fatal("one-frame pool never evicted")
	}

	fresh := openLog(t, dir)
	re := openT(t, dir, 1, fresh, items...)
	for i, item := range items {
		want := proto.Version{Counter: uint64(i + 1), Writer: 2}
		if v, ver, err := re.Committed(item); err != nil || v != proto.Value(i+1000) || ver != want {
			t.Fatalf("restarted Committed(%s) = %d %v %v, want %d %v", item, v, ver, err, i+1000, want)
		}
	}
	if st := re.Stats(); st.RedoApplied == 0 || st.RedoApplied+st.RedoSkipped != len(items) {
		t.Fatalf("redo applied %d, skipped %d; want some applied of %d", st.RedoApplied, st.RedoSkipped, len(items))
	}
	if redo := fresh.ScanRedo(); len(redo) != 0 {
		t.Fatalf("the log still holds %d redo records after Open took them", len(redo))
	}
}

// memPages is a heap file of three pages held in memory.
type memPages [3][PageSize]byte

func (m *memPages) readPage(id uint32, buf []byte) error  { copy(buf, m[id][:]); return nil }
func (m *memPages) writePage(id uint32, buf []byte) error { copy(m[id][:], buf); return nil }

// TestPoolMissAllocatesNothing cycles dirty pages through a pool one frame
// too small for them, so every get evicts, flushes and rereads — into the
// frames carved at creation, allocating nothing.
func TestPoolMissAllocatesNothing(t *testing.T) {
	p := newPool(2, new(memPages), func() uint64 { return 0 })
	var id uint32
	allocs := testing.AllocsPerRun(100, func() {
		f, err := p.get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.touch(f, 0)
		id = (id + 1) % 3
	})
	if allocs != 0 {
		t.Fatalf("pool miss allocates %v, want 0", allocs)
	}
	if p.hits != 0 || p.flushes != p.evictions || p.evictions+2 != p.misses {
		t.Fatalf("hits %d misses %d evictions %d flushes %d: want every get a dirty eviction",
			p.hits, p.misses, p.evictions, p.flushes)
	}
}

// BenchmarkInstallEvict installs one write per op on a two-frame pool,
// cycling over one item on each of three pages, so every install evicts
// and flushes a dirty page and reads another.
func BenchmarkInstallEvict(b *testing.B) {
	var items []proto.Item
	for i := 0; i < 300; i++ {
		items = append(items, proto.Item(fmt.Sprintf("item-%03d", i)))
	}
	e, err := Open(b.TempDir(), 2, storage.Deps{Site: 1, Items: items, InitialWriter: 1, Log: wal.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer e.heap.file.Close()
	var perPage []proto.Item
	for _, item := range items {
		if ref, _ := e.heap.ref(item); int(ref.page) == len(perPage) {
			perPage = append(perPage, item)
		}
	}
	if len(perPage) != 3 {
		b.Fatalf("items span %d pages, want 3", len(perPage))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := proto.TxnID(i + 2)
		if err := e.BufferWrite(id, perPage[i%3], proto.Value(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := e.InstallPending(id, proto.Version{Counter: uint64(i + 1), Writer: id}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTornPageDropped corrupts a flushed page on disk; open must detect the
// checksum mismatch, drop the page, and rebuild its contents from redo.
func TestTornPageDropped(t *testing.T) {
	rawiotest.Run(t, testTornPageDropped)
}

func testTornPageDropped(t *testing.T, dir string) {
	e := openT(t, dir, 4, openLog(t, dir), "x")
	ver := proto.Version{Counter: 2, Writer: 6}
	if _, err := e.InstallDirect("x", 55, ver); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, HeapFileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad}, PageSize-2); err != nil { // tear the tuple area
		t.Fatal(err)
	}
	f.Close()

	re := openT(t, dir, 4, openLog(t, dir), "x")
	st := re.Stats()
	if st.CorruptPages != 1 {
		t.Fatalf("CorruptPages = %d, want 1", st.CorruptPages)
	}
	if v, gotVer, err := re.Committed("x"); err != nil || v != 55 || gotVer != ver {
		t.Fatalf("torn page not rebuilt from redo: %d %v %v", v, gotVer, err)
	}
	if st.RedoApplied != 1 {
		t.Fatalf("RedoApplied = %d, want 1", st.RedoApplied)
	}
}

// TestWALBeforeData asserts the flush-ordering discipline is wired: every
// installed page carries a pageLSN the log has already made durable, so a
// full checkpoint never trips the pool's ordering check and every install
// has a covering redo record before its page dirties.
func TestWALBeforeData(t *testing.T) {
	log := wal.New()
	e := openT(t, t.TempDir(), 4, log, "x")
	before := log.DurableLSN()
	if _, err := e.InstallDirect("x", 1, proto.Version{Counter: 1, Writer: 2}); err != nil {
		t.Fatal(err)
	}
	if log.DurableLSN() != before+1 {
		t.Fatalf("install did not force a redo record: LSN %d -> %d", before, log.DurableLSN())
	}
	for _, f := range e.heap.pool.frames {
		if f.dirty && f.pageLSN > log.DurableLSN() {
			t.Fatalf("page %d has pageLSN %d beyond durable %d", f.id, f.pageLSN, log.DurableLSN())
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("checkpoint tripped the WAL-before-data check: %v", err)
	}
}

// TestClaimShapedCommitLogsOneRedoRecord: a type-1-shaped transaction — three
// NS refreshes under the versions they carry and one write under the commit
// version — forces exactly one redo record, and a SIGKILL-style reopen
// rebuilds all four copies from it.
func TestClaimShapedCommitLogsOneRedoRecord(t *testing.T) {
	dir := t.TempDir()
	log := openLog(t, dir)
	items := []proto.Item{proto.NSItem(1), proto.NSItem(2), proto.NSItem(3), proto.NSItem(4)}
	e := openT(t, dir, 4, log, items...)
	const claim proto.TxnID = 30
	want := map[proto.Item]storage.Copy{}
	for i, item := range items[:3] {
		c := storage.Copy{Item: item, Value: proto.Value(i + 2), Version: proto.Version{Counter: uint64(9 - i), Writer: proto.TxnID(20 + i)}}
		if err := e.BufferRefresh(claim, item, c.Value, c.Version); err != nil {
			t.Fatal(err)
		}
		want[item] = c
	}
	if err := e.BufferWrite(claim, items[3], 5); err != nil {
		t.Fatal(err)
	}
	commit := proto.Version{Counter: 4, Writer: claim}
	want[items[3]] = storage.Copy{Item: items[3], Value: 5, Version: commit}
	if _, err := e.InstallPending(claim, commit); err != nil {
		t.Fatal(err)
	}
	if n := log.DurableLSN(); n != 1 {
		t.Fatalf("the claim forced %d records, want one redo record", n)
	}

	re := openT(t, dir, 4, openLog(t, dir), items...) // no Flush, no Close: SIGKILL
	if st := re.Stats(); st.RedoApplied != 4 {
		t.Fatalf("RedoApplied = %d, want 4", st.RedoApplied)
	}
	for _, item := range items {
		if v, ver, err := re.Committed(item); err != nil || v != want[item].Value || ver != want[item].Version {
			t.Fatalf("redone Committed(%s) = %d %v %v, want %+v", item, v, ver, err, want[item])
		}
	}
}

// TestPageRoundTrip exercises the slotted-page codec directly.
func TestPageRoundTrip(t *testing.T) {
	data := make([]byte, PageSize)
	pageInit(data)
	ver := proto.Version{Counter: 9, Writer: 4}
	slot, ok := pageInsert(data, "hello", -12, ver)
	if !ok {
		t.Fatal("insert into empty page failed")
	}
	item, v, gotVer := pageTuple(data, slot)
	if item != "hello" || v != -12 || gotVer != ver {
		t.Fatalf("tuple round trip = %q %d %v", item, v, gotVer)
	}
	pageUpdate(data, slot, 77, proto.Version{Counter: 10, Writer: 5})
	if _, v, _ := pageTuple(data, slot); v != 77 {
		t.Fatalf("update = %d", v)
	}
	pageSeal(data)
	if !pageVerify(data) {
		t.Fatal("sealed page fails verification")
	}
	data[100] ^= 0xff
	if pageVerify(data) {
		t.Fatal("corrupted page passes verification")
	}
}
