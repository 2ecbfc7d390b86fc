// Package enginetest is the storage.Table conformance suite: one shared
// battery every engine's copy table must pass, so dm/node/core can swap
// engines without behavioral drift. It checks the table contract directly
// (no-copy errors, idempotent Add, Put atomic per batch, SetValue keeping
// the version), then the storage.Store front's contract over that table,
// and finally drives the front over the table under test and a model of
// the front over plain maps — the semantic oracle, kept here — through one
// randomized (testing/quick) op stream and requires identical observable
// state.
package enginetest

import (
	"cmp"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/wal"
)

// Maker builds a fresh, empty table for one conformance subtest from what
// assembly hands an engine: the site's log, which a redo-logged table
// appends to and any other table ignores, and the numbering its slots
// follow (d.Numbers()). Implementations back it with whatever scaffolding
// they need (temp dirs); each call must return an independent table.
type Maker func(t *testing.T, d storage.Deps) storage.Table

// FailingTable refuses Put while Fail is set: the adversary for tests of
// what the layers above a table do with an install error.
type FailingTable struct {
	storage.Table
	Fail bool
}

// Put implements storage.Table.
func (f *FailingTable) Put(txn proto.TxnID, writes []wal.WriteRec) error {
	if f.Fail {
		return errors.New("injected put failure")
	}
	return f.Table.Put(txn, writes)
}

const initialTxn proto.TxnID = 1

var initialVersion = proto.Version{Writer: initialTxn}

// universe is every item a subtest lays out, and some no subtest does ("e",
// "z"): the shared numbering's items, as a catalog numbers more items than
// a site of a partial placement holds. "nope" is in no numbering.
var universe = []proto.Item{"a", "b", "c", "d", "e", "x", "y", "z", proto.NSItem(1), proto.NSItem(2), proto.NSItem(3)}

// Run executes the full conformance battery against mk's tables, first
// with each table numbering the items it lays out itself (no
// Deps.Numbering, as storage.NewMem and disk.Open number them), then under
// "shared" with every table of the run numbered by one numbering of
// universe, as the sites of a process share their catalog's.
func Run(t *testing.T, mk Maker) {
	run(t, battery{mk: mk})
	t.Run("shared", func(t *testing.T) { run(t, battery{mk: mk, shared: proto.NewNumbering(universe)}) })
}

func run(t *testing.T, b battery) {
	t.Run("InitialState", func(t *testing.T) { testInitialState(t, b) })
	t.Run("NoCopy", func(t *testing.T) { testNoCopy(t, b) })
	t.Run("PutAtomicPerBatch", func(t *testing.T) { testPutAtomicPerBatch(t, b) })
	t.Run("PendingIsolation", func(t *testing.T) { testPendingIsolation(t, b) })
	t.Run("InstallDirectGuard", func(t *testing.T) { testInstallDirectGuard(t, b) })
	t.Run("InstallRefreshUnconditional", func(t *testing.T) { testInstallRefresh(t, b) })
	t.Run("Unreadable", func(t *testing.T) { testUnreadable(t, b) })
	t.Run("SessionMonotonic", func(t *testing.T) { testSessionMonotonic(t, b) })
	t.Run("CrashWipesVolatile", func(t *testing.T) { testCrashWipesVolatile(t, b) })
	t.Run("AddItemSeed", func(t *testing.T) { testAddItemSeed(t, b) })
	t.Run("QuickVsOracle", func(t *testing.T) { testQuickVsOracle(t, b) })
}

// battery is one run of the subtests: the tables' maker and the numbering
// they share, nil where each numbers its own items.
type battery struct {
	mk     Maker
	shared *proto.Numbering
}

// front lays items out on a fresh table and returns the front over it
// beside the table itself.
func (b battery) front(t *testing.T, site proto.SiteID, items ...proto.Item) (*storage.Store, storage.Table) {
	t.Helper()
	return b.frontOver(t, wal.New(), site, items...)
}

// frontOver is front with the table over the given site log.
func (b battery) frontOver(t *testing.T, log *wal.Log, site proto.SiteID, items ...proto.Item) (*storage.Store, storage.Table) {
	t.Helper()
	d := storage.Deps{Site: site, Items: items, InitialWriter: initialTxn, Log: log, Numbering: b.shared}
	tb := b.mk(t, d)
	e, err := storage.NewStore(d, tb)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return e, tb
}

func testInitialState(t *testing.T, b battery) {
	e, tb := b.front(t, 3, "y", "x", proto.NSItem(1))
	want := []proto.Item{proto.NSItem(1), "x", "y"}
	if got := e.Items(); e.Site() != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("site %v Items() = %v, want site 3 and sorted %v", e.Site(), got, want)
	}
	if got := tb.Items(); !reflect.DeepEqual(got, want) || !tb.Has("x") || tb.Has("z") {
		t.Fatalf("table Items() = %v, Has(x) %v, Has(z) %v; want %v in name order", got, tb.Has("x"), tb.Has("z"), want)
	}
	if v, ver, err := tb.Get("x"); err != nil || v != 0 || ver != initialVersion {
		t.Fatalf("Get(x) = %v %v %v, want 0 %v nil", v, ver, err, initialVersion)
	}
	if e.IsUnreadable("x") || len(e.UnreadableItems()) != 0 {
		t.Fatal("fresh engine has unreadable marks")
	}
}

func testNoCopy(t *testing.T, b battery) {
	e, tb := b.front(t, 1, "x")
	if _, _, err := tb.Get("nope"); !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("Get(missing) err = %v, want ErrNoCopy", err)
	}
	if err := tb.SetValue("nope", 1); !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("SetValue(missing) err = %v, want ErrNoCopy", err)
	}
	// The front refuses to buffer or mark what the table does not hold.
	if err := e.BufferWrite(7, "nope", 1); !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("BufferWrite(missing) err = %v, want ErrNoCopy", err)
	}
	if err := e.BufferRefresh(7, "nope", 1, initialVersion); !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("BufferRefresh(missing) err = %v, want ErrNoCopy", err)
	}
	if _, err := e.InstallDirect("nope", 1, proto.Version{Counter: 1, Writer: 7}); !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("InstallDirect(missing) err = %v, want ErrNoCopy", err)
	}
	e.MarkUnreadable("nope")
	if len(e.UnreadableItems()) != 0 {
		t.Fatal("MarkUnreadable on missing copy left a mark")
	}
}

// testPutAtomicPerBatch: a batch naming a missing copy applies none of its
// writes; a good batch applies all of them, each under its own version, and
// compares no versions doing so.
func testPutAtomicPerBatch(t *testing.T, b battery) {
	_, tb := b.front(t, 1, "x", "y")
	high := proto.Version{Counter: 9, Writer: 5}
	if err := tb.Put(5, []wal.WriteRec{{Item: "x", Value: 1, Version: high}}); err != nil {
		t.Fatal(err)
	}
	err := tb.Put(6, []wal.WriteRec{
		{Item: "x", Value: 2, Version: proto.Version{Counter: 10, Writer: 6}},
		{Item: "nope", Value: 3, Version: proto.Version{Counter: 10, Writer: 6}},
	})
	if !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("Put with a missing copy err = %v, want ErrNoCopy", err)
	}
	if v, ver, _ := tb.Get("x"); v != 1 || ver != high {
		t.Fatalf("failed batch was partly applied: x = %d %v", v, ver)
	}
	low := proto.Version{Counter: 2, Writer: 7}
	err = tb.Put(7, []wal.WriteRec{
		{Item: "x", Value: 4, Refresh: true, Version: low},
		{Item: "y", Value: 5, Version: proto.Version{Counter: 11, Writer: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ver, _ := tb.Get("x"); v != 4 || ver != low {
		t.Fatalf("x = %d %v, want 4 under the numerically older %v", v, ver, low)
	}
	if v, ver, _ := tb.Get("y"); v != 5 || ver.Counter != 11 {
		t.Fatalf("y = %d %v, want 5 under counter 11", v, ver)
	}
}

// testPendingIsolation: nothing a transaction buffers reaches the table
// before InstallPending, and nothing it dropped ever does.
func testPendingIsolation(t *testing.T, b battery) {
	e, tb := b.front(t, 1, "x", "y")
	const txn proto.TxnID = 9
	if err := errors.Join(e.BufferWrite(txn, "y", 42), e.BufferWrite(txn, "x", 41)); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tb.Get("x"); v != 0 {
		t.Fatalf("pending write reached the table: %d", v)
	}
	e.MarkUnreadable("x")
	ver := proto.Version{Counter: 5, Writer: txn}
	installed, err := e.InstallPending(txn, ver)
	want := []wal.WriteRec{{Item: "x", Value: 41, Version: ver}, {Item: "y", Value: 42, Version: ver}}
	if err != nil || !reflect.DeepEqual(installed, want) {
		t.Fatalf("InstallPending = %+v %v, want %+v", installed, err, want)
	}
	if v, gotVer, _ := tb.Get("x"); v != 41 || gotVer != ver || e.IsUnreadable("x") {
		t.Fatalf("after install: x = %d %v, unreadable %v", v, gotVer, e.IsUnreadable("x"))
	}

	// Abort path: dropped writes and refreshes never surface.
	if err := errors.Join(e.BufferWrite(txn, "x", 77), e.BufferRefresh(txn, "y", 78, proto.Version{Counter: 1, Writer: 3})); err != nil {
		t.Fatal(err)
	}
	e.DropPending(txn)
	if installed, err := e.InstallPending(txn, ver); err != nil || len(installed) != 0 {
		t.Fatalf("InstallPending after drop = %+v %v, want nothing", installed, err)
	}
	if x, _, _ := tb.Get("x"); x != 41 {
		t.Fatalf("dropped pending write surfaced: %d", x)
	}
	if y, _, _ := tb.Get("y"); y != 42 {
		t.Fatalf("dropped pending refresh surfaced: %d", y)
	}
}

// testInstallDirectGuard: the front's one version comparison reads the
// version the table holds.
func testInstallDirectGuard(t *testing.T, b battery) {
	e, tb := b.front(t, 1, "x")
	newer := proto.Version{Counter: 10, Writer: 5}
	if installed, err := e.InstallDirect("x", 100, newer); err != nil || !installed {
		t.Fatalf("InstallDirect newer = %v %v", installed, err)
	}
	// Same or older version: skipped, mark still cleared.
	e.MarkUnreadable("x")
	for _, ver := range []proto.Version{newer, {Counter: 9, Writer: 5}} {
		if installed, err := e.InstallDirect("x", 200, ver); err != nil || installed {
			t.Fatalf("InstallDirect %v over %v = %v %v, want skip", ver, newer, installed, err)
		}
	}
	if v, _, _ := tb.Get("x"); v != 100 || e.IsUnreadable("x") {
		t.Fatalf("skipped installs: x = %d, unreadable %v", v, e.IsUnreadable("x"))
	}
	if installed, _ := e.InstallDirect("x", 400, proto.Version{Counter: 11, Writer: 2}); !installed {
		t.Fatal("newer version skipped")
	}
	if v, _, _ := tb.Get("x"); v != 400 {
		t.Fatalf("Get = %d, want 400", v)
	}
}

// testInstallRefresh pins the authoritative-snapshot semantics through the
// commit path: a buffered refresh replaces the local copy even when its
// version is numerically older — the shape a type-1 claim's "site up" takes
// when it overwrites an exclusion's higher-sequence "site down" — keeps the
// version it carries, not the commit version, and clears the mark.
func testInstallRefresh(t *testing.T, b battery) {
	e, tb := b.front(t, 1, "x")
	if _, err := e.InstallDirect("x", 100, proto.Version{Counter: 10, Writer: 5}); err != nil {
		t.Fatal(err)
	}
	e.MarkUnreadable("x")
	older := proto.Version{Counter: 2, Writer: 7}
	if err := e.BufferRefresh(20, "x", 42, older); err != nil {
		t.Fatalf("BufferRefresh = %v", err)
	}
	if _, err := e.InstallPending(20, proto.Version{Counter: 30, Writer: 20}); err != nil {
		t.Fatalf("InstallPending = %v", err)
	}
	if v, ver, err := tb.Get("x"); err != nil || v != 42 || ver != older {
		t.Fatalf("refreshed Get = %d %v %v, want 42 %v", v, ver, err, older)
	}
	if e.IsUnreadable("x") {
		t.Fatal("installed refresh kept the unreadable mark")
	}
}

// testUnreadable: marks follow the table's items, NS copies exempt.
func testUnreadable(t *testing.T, b battery) {
	e, _ := b.front(t, 1, "x", "y", proto.NSItem(1), proto.NSItem(2))
	e.MarkUnreadable("y")
	if !e.IsUnreadable("y") || e.IsUnreadable("x") {
		t.Fatal("MarkUnreadable wrong")
	}
	if n := e.MarkAllUnreadable(); n != 2 || e.IsUnreadable(proto.NSItem(1)) {
		t.Fatalf("MarkAllUnreadable = %d, NS marked %v; want 2 (NS items exempt)", n, e.IsUnreadable(proto.NSItem(1)))
	}
	if got := e.UnreadableItems(); !reflect.DeepEqual(got, []proto.Item{"x", "y"}) {
		t.Fatalf("UnreadableItems = %v", got)
	}
}

// testSessionMonotonic: the §3.1 session counter is the site log's, beside
// whatever the table logs there. An install through the front and a Crash of
// the front neither move it back nor reuse a number, and each advance is one
// session record through the sink, in order.
func testSessionMonotonic(t *testing.T, b battery) {
	log := wal.New()
	var seen []proto.Session
	log.SetSink(func(recs []wal.Record) {
		for _, r := range recs {
			if r.Type == wal.RecordSession {
				seen = append(seen, proto.Session(r.CommitSeq))
			}
		}
	})
	e, tb := b.frontOver(t, log, 1, "x")
	first := log.NextSession()
	ver := proto.Version{Counter: 3, Writer: 8}
	if _, err := e.InstallDirect("x", 50, ver); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	second := log.NextSession()
	if first != wal.InitialSession+1 || second != first+1 {
		t.Fatalf("NextSession around an install and a Crash = %d, %d; want %d, %d", first, second, wal.InitialSession+1, wal.InitialSession+2)
	}
	if got := log.Session(); got != second || !reflect.DeepEqual(seen, []proto.Session{first, second}) {
		t.Fatalf("Session = %d, sink saw %v; want %d, [%d %d]", got, seen, second, first, second)
	}
	if v, gotVer, err := tb.Get("x"); err != nil || v != 50 || gotVer != ver {
		t.Fatalf("session records disturbed the table: x = %d %v %v", v, gotVer, err)
	}
}

// testCrashWipesVolatile: Crash is the front's; the table must not notice.
func testCrashWipesVolatile(t *testing.T, b battery) {
	e, tb := b.front(t, 1, "x", "y")
	ver := proto.Version{Counter: 3, Writer: 8}
	if _, err := e.InstallDirect("x", 50, ver); err != nil {
		t.Fatal(err)
	}
	e.MarkUnreadable("y")
	if err := e.BufferWrite(9, "y", 1); err != nil {
		t.Fatal(err)
	}

	e.Crash()

	if len(e.UnreadableItems()) != 0 || len(e.Pending(9)) != 0 {
		t.Fatal("Crash kept unreadable marks or pending writes")
	}
	if v, gotVer, err := tb.Get("x"); err != nil || v != 50 || gotVer != ver {
		t.Fatalf("Crash lost stable copy: %d %v %v", v, gotVer, err)
	}
}

// testAddItemSeed: Add is idempotent and gives a slot only to a numbered
// item; Seed sets a value and keeps its version.
func testAddItemSeed(t *testing.T, b battery) {
	e, tb := b.front(t, 1, "x")
	if err := tb.Add("x", proto.Version{Writer: 99}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add("nope", initialVersion); !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("Add(unnumbered) err = %v, want ErrNoCopy", err)
	}
	want := []storage.Copy{{Item: "x", Value: 123, Version: initialVersion, Unreadable: true}}
	if b.shared == nil {
		// Every item the table numbers is laid out: z has no slot.
		if err := tb.Add("z", initialVersion); !errors.Is(err, storage.ErrNoCopy) {
			t.Fatalf("Add(z) over its own numbering err = %v, want ErrNoCopy", err)
		}
	} else {
		// z is numbered but not laid out; the second layout keeps the first.
		if err := errors.Join(tb.Add("z", initialVersion), tb.Add("z", proto.Version{Writer: 99})); err != nil {
			t.Fatal(err)
		}
		if v, ver, err := tb.Get("z"); err != nil || v != 0 || ver != initialVersion {
			t.Fatalf("added item = %d %v %v", v, ver, err)
		}
		want = append(want, storage.Copy{Item: "z", Version: initialVersion})
	}
	if err := e.Seed("x", 123); err != nil {
		t.Fatal(err)
	}
	e.MarkUnreadable("x")
	snap, err := e.Snapshot()
	if err != nil || !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot after Seed = %+v %v, want %+v (value set, version kept)", snap, err, want)
	}
}

// opSpec is one randomized engine operation; it implements quick.Generator
// so testing/quick can synthesize whole op streams.
type opSpec struct {
	Kind    uint8
	Item    uint8
	Txn     uint8
	Value   proto.Value
	Counter uint16
}

// Generate implements quick.Generator.
func (opSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(opSpec{
		Kind:    uint8(r.Intn(9)),
		Item:    uint8(r.Intn(6)),
		Txn:     uint8(2 + r.Intn(3)),
		Value:   proto.Value(r.Intn(1000)),
		Counter: uint16(r.Intn(8)),
	})
}

// model is the front's observable behaviour over plain maps, written to be
// obviously right rather than fast: the battery's oracle.
type model struct {
	copies     map[proto.Item]storage.Copy // committed value and version
	unreadable map[proto.Item]bool
	pending    map[proto.TxnID]map[proto.Item]wal.WriteRec
}

func newModel(items []proto.Item) *model {
	m := &model{copies: make(map[proto.Item]storage.Copy)}
	for _, item := range items {
		m.copies[item] = storage.Copy{Item: item, Version: initialVersion}
	}
	m.crash()
	return m
}

func (m *model) crash() {
	m.unreadable = make(map[proto.Item]bool)
	m.pending = make(map[proto.TxnID]map[proto.Item]wal.WriteRec)
}

func (m *model) has(item proto.Item) bool {
	_, ok := m.copies[item]
	return ok
}

// buffer puts w in txn's pending set, replacing what txn buffered for its
// item before.
func (m *model) buffer(txn proto.TxnID, w wal.WriteRec) error {
	if !m.has(w.Item) {
		return storage.ErrNoCopy
	}
	if m.pending[txn] == nil {
		m.pending[txn] = make(map[proto.Item]wal.WriteRec)
	}
	m.pending[txn][w.Item] = w
	return nil
}

// installPending installs txn's set, writes under version and refreshes
// under their own, and returns it sorted by item; nil if there is none.
func (m *model) installPending(txn proto.TxnID, version proto.Version) []wal.WriteRec {
	var out []wal.WriteRec
	for _, item := range sortedKeys(m.pending[txn]) {
		w := m.pending[txn][item]
		if !w.Refresh {
			w.Version = version
		}
		m.copies[item] = storage.Copy{Item: item, Value: w.Value, Version: w.Version}
		delete(m.unreadable, item)
		out = append(out, w)
	}
	delete(m.pending, txn)
	return out
}

func (m *model) installDirect(item proto.Item, value proto.Value, version proto.Version) (bool, error) {
	c, ok := m.copies[item]
	if !ok {
		return false, storage.ErrNoCopy
	}
	installed := c.Version.Less(version)
	if installed {
		m.copies[item] = storage.Copy{Item: item, Value: value, Version: version}
	}
	delete(m.unreadable, item)
	return installed, nil
}

func (m *model) markUnreadable(item proto.Item) {
	if m.has(item) {
		m.unreadable[item] = true
	}
}

func (m *model) markAllUnreadable() int {
	n := 0
	for item := range m.copies {
		if _, isNS := proto.IsNSItem(item); !isNS {
			m.unreadable[item] = true
			n++
		}
	}
	return n
}

func (m *model) snapshot() []storage.Copy {
	var out []storage.Copy
	for _, item := range sortedKeys(m.copies) {
		c := m.copies[item]
		c.Unreadable = m.unreadable[item]
		out = append(out, c)
	}
	return out
}

func (m *model) unreadableItems() []proto.Item {
	return sortedKeys(m.unreadable)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// testQuickVsOracle drives the front over the table under test and the
// model through the same randomized op stream, ops on an item the site
// holds no copy of ("e") included, and requires identical observable
// state.
func testQuickVsOracle(t *testing.T, b battery) {
	held := []proto.Item{"a", "b", "c", "d", proto.NSItem(1)}
	items := append(slices.Clone(held), "e")
	property := func(ops []opSpec) bool {
		e, _ := b.front(t, 2, held...)
		oracle := newModel(held)
		for _, op := range ops {
			item := items[int(op.Item)%len(items)]
			txn := proto.TxnID(op.Txn)
			ver := proto.Version{Counter: uint64(op.Counter), Writer: txn}
			switch op.Kind {
			case 0, 1:
				gotErr := e.BufferWrite(txn, item, op.Value)
				wantErr := oracle.buffer(txn, wal.WriteRec{Item: item, Value: op.Value})
				if !sameErr(gotErr, wantErr) {
					t.Logf("BufferWrite(%s) = %v, model %v", item, gotErr, wantErr)
					return false
				}
			case 2:
				got, err := e.InstallPending(txn, ver)
				want := oracle.installPending(txn, ver)
				if err != nil || !slices.Equal(got, want) {
					t.Logf("InstallPending diverged: %+v/%v vs %+v", got, err, want)
					return false
				}
			case 3:
				e.DropPending(txn)
				delete(oracle.pending, txn)
			case 4:
				gotI, gotErr := e.InstallDirect(item, op.Value, ver)
				wantI, wantErr := oracle.installDirect(item, op.Value, ver)
				if gotI != wantI || !sameErr(gotErr, wantErr) {
					t.Logf("InstallDirect(%s) diverged: %v/%v vs %v/%v", item, gotI, gotErr, wantI, wantErr)
					return false
				}
			case 5:
				e.MarkUnreadable(item)
				oracle.markUnreadable(item)
			case 6:
				// A refresh under another writer's version, numerically
				// unrelated to the copy's.
				refreshed := proto.Version{Counter: uint64(op.Counter), Writer: proto.TxnID(op.Value)}
				gotErr := e.BufferRefresh(txn, item, op.Value, refreshed)
				wantErr := oracle.buffer(txn, wal.WriteRec{Item: item, Value: op.Value, Refresh: true, Version: refreshed})
				if !sameErr(gotErr, wantErr) {
					t.Logf("BufferRefresh(%s) = %v, model %v", item, gotErr, wantErr)
					return false
				}
			case 7:
				if got, want := e.MarkAllUnreadable(), oracle.markAllUnreadable(); got != want {
					t.Logf("MarkAllUnreadable = %d, model %d", got, want)
					return false
				}
			case 8:
				e.Crash()
				oracle.crash()
			}
		}
		got, err := e.Snapshot()
		if want := oracle.snapshot(); err != nil || !slices.Equal(got, want) {
			t.Logf("Snapshot diverged:\n engine %+v %v\n model  %+v", got, err, want)
			return false
		}
		if got, want := e.UnreadableItems(), oracle.unreadableItems(); !slices.Equal(got, want) {
			t.Logf("UnreadableItems = %v, model %v", got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(1986)), // deterministic battery
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatalf("table diverged from the model: %v", err)
	}
}

// sameErr reports whether got is the error the model expects: nil for nil,
// one wrapping ErrNoCopy for ErrNoCopy.
func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}
