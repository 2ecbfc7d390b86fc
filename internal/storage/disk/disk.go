// Package disk is the disk-backed storage engine: committed copies live on
// slotted heap pages in a heap file, cached by a small LRU buffer pool, and
// every install is redo-logged to the site's write-ahead log before the
// page is dirtied (WAL-before-data). A restarted engine verifies page
// checksums, replays the log's physical redo records over anything the heap
// file missed, and so rebuilds readable committed state from local stable
// storage alone — a recovering site then only needs peers for pages that
// actually changed while it was down. That is all this package holds: the
// stable copies, as a storage.Table. Everything volatile (unreadable marks,
// pending sets) belongs to the storage.Store front that Engine embeds.
package disk

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"siterecovery/internal/proto"
	"siterecovery/internal/rawio"
	"siterecovery/internal/storage"
	"siterecovery/internal/wal"
)

// HeapFileName is the heap file's name inside the engine directory.
const HeapFileName = "heap.dat"

// DefaultPoolPages is the buffer-pool capacity when the caller does not
// choose one.
const DefaultPoolPages = 64

// Stats describes the engine's disk- and recovery-side behavior.
type Stats struct {
	Pages        int    // heap pages allocated (buffered or on disk)
	Items        int    // local copies
	CorruptPages int    // pages dropped at open on checksum mismatch
	RedoApplied  int    // redo writes applied at open (page was stale)
	RedoSkipped  int    // redo writes skipped at open (page already current)
	PoolHits     uint64 // buffer-pool hits
	PoolMisses   uint64 // buffer-pool misses (heap-file reads)
	Evictions    uint64 // frames evicted
	Flushes      uint64 // dirty pages written (eviction + checkpoint)
}

// slotRef is where a copy's tuple lives; slot is -1 where there is none.
type slotRef struct {
	page uint32
	slot int32
}

// Engine is the disk-backed storage.Engine: the shared storage.Store front
// over a heap-file copy table. Create with Open or Factory.
type Engine struct {
	*storage.Store
	heap *table
}

// table is the disk storage.Table: pages, pool and redo, nothing volatile.
type table struct {
	log   *wal.Log
	items *proto.Numbering

	mu    sync.Mutex
	file  *os.File   // to stat and close
	pages rawio.File // file's page reads, writes and sync
	pool  *pool
	dir   []slotRef // by item number
	n     int       // copies held
	free  []int     // free bytes per page; len(free) is the page count

	corruptPages             int
	redoApplied, redoSkipped int
}

// Factory returns a storage.Factory that opens a disk engine rooted at dir
// (the heap file is dir/heap.dat, conventionally the same directory as
// srnode's -statedir). poolPages bounds the buffer pool; <= 0 means
// DefaultPoolPages.
func Factory(dir string, poolPages int) storage.Factory {
	return func(d storage.Deps) (storage.Engine, error) {
		return Open(dir, poolPages, d)
	}
}

// Open opens (creating if absent) the heap file under dir, lays out any of
// d.Items not already present, and replays the redo records d.Log loaded
// (taking them from it), so committed state the heap file
// missed becomes readable again before the engine serves its first call.
func Open(dir string, poolPages int, d storage.Deps) (*Engine, error) {
	if d.Log == nil {
		return nil, fmt.Errorf("disk engine for site %v: storage.Deps.Log is required (redo records go to the site WAL)", d.Site)
	}
	t, err := openTable(dir, poolPages, d.Log, d.Numbers())
	if err != nil {
		return nil, err
	}
	store, err := storage.NewStore(d, t)
	if err == nil {
		err = t.redo(proto.Version{Writer: d.InitialWriter})
	}
	if err != nil {
		t.file.Close()
		return nil, err
	}
	return &Engine{Store: store, heap: t}, nil
}

// openTable opens the heap file under dir and loads what it holds of the
// items numbered by items.
func openTable(dir string, poolPages int, log *wal.Log, items *proto.Numbering) (*table, error) {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk engine: %w", err)
	}
	file, err := os.OpenFile(filepath.Join(dir, HeapFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk engine: %w", err)
	}
	t := &table{log: log, items: items, file: file, pages: rawio.WrapFile(file), dir: make([]slotRef, items.Len())}
	for k := range t.dir {
		t.dir[k].slot = -1
	}
	t.pool = newPool(poolPages, t, log.DurableLSN)
	if err := t.load(); err != nil {
		file.Close()
		return nil, err
	}
	return t, nil
}

// load scans the heap file, verifying checksums and building the item
// directory. A page failing verification is dropped (its items come back
// via the redo pass or re-layout) rather than trusted. A tuple of an item
// the numbering lacks keeps its slot but gets no directory entry.
func (t *table) load() error {
	info, err := t.file.Stat()
	if err != nil {
		return fmt.Errorf("disk engine: %w", err)
	}
	nPages := int(info.Size() / PageSize)
	buf := make([]byte, PageSize)
	for id := 0; id < nPages; id++ {
		if err := t.readPage(uint32(id), buf); err != nil {
			return err
		}
		if pageZero(buf) { // hole from out-of-order flushes: an empty page
			t.free = append(t.free, PageSize-pageHdrSize)
			continue
		}
		if !pageVerify(buf) {
			// Torn write: drop the page and rewrite it empty; its contents
			// come back from the redo pass (or item re-layout) below.
			t.corruptPages++
			pageInit(buf)
			pageSeal(buf)
			if err := t.writePage(uint32(id), buf); err != nil {
				return err
			}
			t.free = append(t.free, PageSize-pageHdrSize)
			continue
		}
		for slot := 0; slot < pageNumSlots(buf); slot++ {
			item, _, _ := pageTuple(buf, slot)
			k, ok := t.items.Number(item)
			if !ok || t.dir[k].slot >= 0 {
				continue
			}
			t.dir[k] = slotRef{page: uint32(id), slot: int32(slot)}
			t.n++
		}
		t.free = append(t.free, pageFree(buf))
	}
	return nil
}

// redo replays the log's preloaded redo records strictly in log order, so
// each item ends at the value of its LAST logged install. Replay must not
// version-guard: versions here carry the writer's commit sequence, which is
// not monotone across writers, and the live install path (InstallPending
// under 2PC) installs unconditionally in commit order — a session claim's
// "site up" can legitimately overwrite an exclusion's numerically larger
// "site down". Last-record-wins reproduces exactly that order, and is
// idempotent across repeated opens because replaying a prefix that is
// already on a flushed page just rewrites the same bytes before later
// records land the final state. Version equality only feeds the stats:
// a record whose version is already on the page (flushed pre-crash)
// counts as skipped, anything else as applied. An item the log mentions
// but the layout lacks is added under initial first, unless the numbering
// lacks it too: then nothing on this site can read it, and it is passed over.
func (t *table) redo(initial proto.Version) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	durable := t.log.DurableLSN()
	for _, rec := range t.log.ScanRedo() {
		for _, w := range rec.Writes {
			if _, ok := t.items.Number(w.Item); !ok {
				continue
			}
			if err := t.add(w.Item, initial); err != nil {
				return err
			}
			f, slot, _, ver, err := t.tuple(w.Item)
			if err != nil {
				return err
			}
			if ver == w.Version {
				t.redoSkipped++
				continue
			}
			pageUpdate(f.data, slot, w.Value, w.Version)
			t.pool.touch(f, durable)
			t.redoApplied++
		}
	}
	return nil
}

// readPage implements pageIO: a raw page read, zero-padded past the
// current end of file so freshly allocated (never flushed) pages read back
// as zeroes.
func (t *table) readPage(id uint32, buf []byte) error {
	n, err := t.pages.ReadAt(buf, int64(id)*PageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("disk engine: read page %d: %w", id, err)
	}
	for i := n; i < PageSize; i++ {
		buf[i] = 0
	}
	return nil
}

// writePage implements pageIO.
func (t *table) writePage(id uint32, buf []byte) error {
	if _, err := t.pages.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("disk engine: write page %d: %w", id, err)
	}
	return nil
}

// tuple resolves item to its buffered frame and decoded tuple. The caller
// holds mu and must be done with the frame before its next pool.get, which
// may reuse it for another page.
func (t *table) tuple(item proto.Item) (*frame, int, proto.Value, proto.Version, error) {
	ref, ok := t.ref(item)
	if !ok {
		return nil, 0, 0, proto.Version{}, fmt.Errorf("%q: %w", item, storage.ErrNoCopy)
	}
	f, err := t.pool.get(ref.page)
	if err != nil {
		return nil, 0, 0, proto.Version{}, err
	}
	_, value, ver := pageTuple(f.data, int(ref.slot))
	return f, int(ref.slot), value, ver, nil
}

// ref returns where item's tuple lives, if the table holds a copy of it.
// The caller holds mu.
func (t *table) ref(item proto.Item) (slotRef, bool) {
	k, ok := t.items.Number(item)
	if !ok || t.dir[k].slot < 0 {
		return slotRef{}, false
	}
	return t.dir[k], true
}

// add lays out a new tuple on the first page with room, allocating a fresh
// page when none has any. Allocation itself is not redo-logged: the initial
// layout is reconstructed from storage.Deps.Items (and from redo records
// mentioning the item) at the next open. The caller holds mu.
func (t *table) add(item proto.Item, version proto.Version) error {
	k, ok := t.items.Number(item)
	if !ok {
		return fmt.Errorf("disk engine: %q is not numbered: %w", item, storage.ErrNoCopy)
	}
	if t.dir[k].slot >= 0 {
		return nil
	}
	if len(item) > maxItemBytes {
		return fmt.Errorf("disk engine: item name %q exceeds %d bytes", item, maxItemBytes)
	}
	need := slotSize + tupleSize(item)
	page := -1
	for id, free := range t.free {
		if free >= need {
			page = id
			break
		}
	}
	if page < 0 {
		page = len(t.free)
		t.free = append(t.free, PageSize-pageHdrSize)
	}
	f, err := t.pool.get(uint32(page))
	if err != nil {
		return err
	}
	slot, ok := pageInsert(f.data, item, 0, version)
	if !ok {
		return fmt.Errorf("disk engine: page %d rejected %q despite free-space accounting", page, item)
	}
	t.pool.touch(f, t.log.DurableLSN())
	t.free[page] = pageFree(f.data)
	t.dir[k] = slotRef{page: uint32(page), slot: int32(slot)}
	t.n++
	return nil
}

// Has implements storage.Table.
func (t *table) Has(item proto.Item) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.ref(item)
	return ok
}

// Items implements storage.Table.
func (t *table) Items() []proto.Item {
	t.mu.Lock()
	defer t.mu.Unlock()
	items := make([]proto.Item, 0, t.n)
	for k, ref := range t.dir {
		if ref.slot >= 0 {
			items = append(items, t.items.Item(k))
		}
	}
	return items
}

// Add implements storage.Table.
func (t *table) Add(item proto.Item, version proto.Version) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(item, version)
}

// Get implements storage.Table.
func (t *table) Get(item proto.Item) (proto.Value, proto.Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, _, value, ver, err := t.tuple(item)
	return value, ver, err
}

// Put implements storage.Table: the writes are appended to the WAL as one
// physical redo record (one log force), then applied to the buffered pages,
// each stamped no earlier than the covering record's LSN — never the other
// way around. A page that cannot be read mid-batch leaves the writes before
// it applied and the record logged; the error tells the caller, who still
// holds the transaction's locks, to Put the batch again.
func (t *table) Put(txn proto.TxnID, writes []wal.WriteRec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range writes {
		if _, ok := t.ref(w.Item); !ok {
			return fmt.Errorf("%q: %w", w.Item, storage.ErrNoCopy)
		}
	}
	lsn := t.log.AppendRedo(txn, writes)
	for _, w := range writes {
		f, slot, _, _, err := t.tuple(w.Item)
		if err != nil {
			return err
		}
		pageUpdate(f.data, slot, w.Value, w.Version)
		t.pool.touch(f, lsn)
	}
	return nil
}

// SetValue implements storage.Table. Seeding is assembly-time
// initialization, not a commit, so it is not redo-logged; a crash before
// flush loses it and assembly re-seeds.
func (t *table) SetValue(item proto.Item, value proto.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, slot, _, ver, err := t.tuple(item)
	if err != nil {
		return err
	}
	pageUpdate(f.data, slot, value, ver)
	t.pool.touch(f, t.log.DurableLSN())
	return nil
}

// Flush checkpoints: every dirty page goes to the heap file (WAL rule
// enforced per page) and the file is fsynced.
func (e *Engine) Flush() error {
	t := e.heap
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.pool.flushAll(); err != nil {
		return err
	}
	if err := t.pages.Sync(); err != nil {
		return fmt.Errorf("disk engine: sync: %w", err)
	}
	return nil
}

// Close flushes and closes the heap file.
func (e *Engine) Close() error {
	if err := e.Flush(); err != nil {
		e.heap.file.Close()
		return err
	}
	return e.heap.file.Close()
}

// Stats reports disk- and recovery-side counters.
func (e *Engine) Stats() Stats {
	t := e.heap
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Pages:        len(t.free),
		Items:        t.n,
		CorruptPages: t.corruptPages,
		RedoApplied:  t.redoApplied,
		RedoSkipped:  t.redoSkipped,
		PoolHits:     t.pool.hits,
		PoolMisses:   t.pool.misses,
		Evictions:    t.pool.evictions,
		Flushes:      t.pool.flushes,
	}
}

var _ storage.Engine = (*Engine)(nil)
