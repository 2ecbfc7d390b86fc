// Package storage is the per-site store of physical data copies.
//
// It is split along the line the paper's failure model draws (§3.1, §3.4):
//
//   - stable (survives Crash): the committed value and version of every
//     local physical copy (the session counter is the log's: internal/wal);
//   - volatile (lost on Crash): unreadable marks, and pending (uncommitted)
//     writes and copier refreshes buffered for in-flight transactions.
//
// Store, the front, owns everything volatile, once, for every engine. What
// an engine supplies is a Table: the stable copies and nothing else. The map
// table in this package models force-at-commit durability: Put
// synchronously moves values into stable state, so page-level crash
// recovery is unnecessary and internal/wal only remembers two-phase-commit
// outcomes. The disk table (storage/disk) keeps copies on
// slotted heap pages behind a buffer pool and is redo-logged: Put appends a
// physical redo record to the write-ahead log before touching pages
// (WAL-before-data), and a restart replays the log to rebuild committed
// state that never reached the heap file.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"siterecovery/internal/proto"
	"siterecovery/internal/wal"
)

// ErrNoCopy reports an operation on an item this site holds no copy of.
var ErrNoCopy = fmt.Errorf("no local copy")

// Copy is a snapshot of one physical copy.
type Copy struct {
	Item       proto.Item
	Value      proto.Value
	Version    proto.Version
	Unreadable bool
}

// Engine is the per-site store of physical copies that internal/dm,
// internal/node, and internal/core operate against. *Store implements it;
// the disk engine satisfies it by embedding one.
type Engine interface {
	// Site returns the owning site.
	Site() proto.SiteID
	// HasCopy reports whether the site stores a copy of item.
	HasCopy(item proto.Item) bool
	// Items lists the local copies in sorted order.
	Items() []proto.Item
	// Committed returns the committed value and version of the local copy,
	// or an error wrapping ErrNoCopy. It does not consult the unreadable
	// mark; callers gate on IsUnreadable.
	Committed(item proto.Item) (proto.Value, proto.Version, error)
	// IsUnreadable reports whether the copy is marked as possibly stale.
	IsUnreadable(item proto.Item) bool
	// CopyOf returns the local copy — its committed value and version and
	// its unreadable mark — or an error wrapping ErrNoCopy: all a read asks
	// of the store, in one call.
	CopyOf(item proto.Item) (Copy, error)
	// MarkUnreadable marks the copy as possibly stale. Marking an item with
	// no local copy is a no-op.
	MarkUnreadable(item proto.Item)
	// MarkAllUnreadable marks every local copy except NS items and returns
	// how many it marked.
	MarkAllUnreadable() int
	// UnreadableItems lists the currently marked copies in sorted order.
	UnreadableItems() []proto.Item
	// BufferWrite records value as the pending write of txn on item; it is
	// installed under the version InstallPending is given.
	BufferWrite(txn proto.TxnID, item proto.Item, value proto.Value) error
	// BufferRefresh records a copier-style refresh of item in txn's pending
	// set: an authoritative snapshot read from an operational site, which
	// InstallPending installs under the version it carries (the original
	// writer's) instead of the commit version.
	BufferRefresh(txn proto.TxnID, item proto.Item, value proto.Value, version proto.Version) error
	// Pending returns a copy of everything txn has buffered, sorted by
	// item: what its prepare record must carry.
	Pending(txn proto.TxnID) []wal.WriteRec
	// DropPending discards everything txn buffered (abort path).
	DropPending(txn proto.TxnID)
	// InstallPending commits everything txn buffered as one batch — writes
	// under version, refreshes under their own — clearing the unreadable
	// marks of the written copies, and returns what it installed, sorted by
	// item. On an error nothing is forgotten: the pending set and the marks
	// are intact and the call can be repeated.
	InstallPending(txn proto.TxnID, version proto.Version) ([]wal.WriteRec, error)
	// InstallDirect commits a single value under an explicit version,
	// bypassing the pending buffer; the install is skipped (but the
	// unreadable mark still cleared) unless version is newer than the local
	// copy's. It reports whether the value was written.
	InstallDirect(item proto.Item, value proto.Value, version proto.Version) (bool, error)
	// Seed overwrites the value of a copy in place, keeping its current
	// version (cluster assembly only).
	Seed(item proto.Item, value proto.Value) error
	// Crash wipes all volatile state (unreadable marks, pending sets);
	// stable copies survive.
	Crash()
	// Snapshot returns the state of every local copy, sorted by item.
	Snapshot() ([]Copy, error)
}

// Table is what a storage engine implements: one site's stable copies.
// Implementations lock themselves; a missing copy is an error wrapping
// ErrNoCopy. storage/enginetest is the conformance battery.
type Table interface {
	// Has reports whether the table holds a copy of item.
	Has(item proto.Item) bool
	// Items lists the copies, in any order.
	Items() []proto.Item
	// Add lays out a copy of item with value 0 under version. Adding an
	// existing item is a no-op.
	Add(item proto.Item, version proto.Version) error
	// Get returns the committed value and version of a copy.
	Get(item proto.Item) (proto.Value, proto.Version, error)
	// Put durably replaces the value and version of every written copy,
	// unconditionally and in slice order; txn labels the batch in the
	// engine's log. A write to an item with no copy fails the batch before
	// any of it is applied. The table may keep writes.
	Put(txn proto.TxnID, writes []wal.WriteRec) error
	// SetValue overwrites the value of a copy in place, keeping its version.
	SetValue(item proto.Item, value proto.Value) error
}

// Deps is what cluster assembly hands an engine factory: the identity and
// initial layout of the site, plus the site's stable log for engines that
// write physical redo records (the map table ignores it).
type Deps struct {
	Site          proto.SiteID
	Items         []proto.Item
	InitialWriter proto.TxnID
	Log           *wal.Log
}

// Factory builds the storage engine for one site. node.SiteConfig.Engine
// (reached through core.Config.Storage and node.Config.Engine) accepts one;
// nil means MemFactory.
type Factory func(Deps) (Engine, error)

// MemFactory is the default engine factory: the in-memory force-at-commit
// store.
func MemFactory(d Deps) (Engine, error) {
	return NewMem(d.Site, d.Items, d.InitialWriter), nil
}

// Store is the front every engine shares: the volatile half of one site's
// storage, over the engine's Table. mu guards the fields below it and is
// held across a table Put, so installs are atomic with the marks they clear
// and serialized against each other; reads of committed copies go straight
// to the table.
type Store struct {
	site  proto.SiteID
	table Table

	mu         sync.Mutex
	unreadable map[proto.Item]bool
	pending    map[proto.TxnID][]wal.WriteRec // per transaction, sorted by item
}

// NewStore returns the front for d.Site over table, first laying out every
// item of d.Items the table does not hold yet, initialized to value 0
// written by d.InitialWriter (the synthetic initial transaction of the
// serializability theory).
func NewStore(d Deps, table Table) (*Store, error) {
	for _, item := range d.Items {
		if err := table.Add(item, proto.Version{Writer: d.InitialWriter}); err != nil {
			return nil, fmt.Errorf("%v layout: %w", d.Site, err)
		}
	}
	return &Store{
		site:       d.Site,
		table:      table,
		unreadable: make(map[proto.Item]bool),
		pending:    make(map[proto.TxnID][]wal.WriteRec),
	}, nil
}

// NewMem returns an in-memory engine for site holding the given items: the
// front over a fresh map table.
func NewMem(site proto.SiteID, items []proto.Item, initialWriter proto.TxnID) *Store {
	s, err := NewStore(Deps{Site: site, Items: items, InitialWriter: initialWriter}, NewMemTable())
	if err != nil {
		panic(err) // the map table's Add cannot fail
	}
	return s
}

// at names the owning site in a table error.
func (s *Store) at(err error) error {
	if err != nil {
		err = fmt.Errorf("%v %w", s.site, err)
	}
	return err
}

func sortItems(items []proto.Item) []proto.Item {
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// Site returns the owning site.
func (s *Store) Site() proto.SiteID { return s.site }

// HasCopy reports whether the site stores a copy of item.
func (s *Store) HasCopy(item proto.Item) bool { return s.table.Has(item) }

// Items lists the local copies in sorted order.
func (s *Store) Items() []proto.Item { return sortItems(s.table.Items()) }

// Committed returns the committed value and version of the local copy.
// It does not consult the unreadable mark; callers gate on IsUnreadable.
func (s *Store) Committed(item proto.Item) (proto.Value, proto.Version, error) {
	value, version, err := s.table.Get(item)
	return value, version, s.at(err)
}

// CopyOf returns the local copy — its committed value and version and its
// unreadable mark — or an error wrapping ErrNoCopy. The mark is read before
// the value, as a caller of IsUnreadable then Committed reads them.
func (s *Store) CopyOf(item proto.Item) (Copy, error) {
	s.mu.Lock()
	unreadable := s.unreadable[item]
	s.mu.Unlock()
	value, version, err := s.table.Get(item)
	if err != nil {
		return Copy{}, s.at(err)
	}
	return Copy{Item: item, Value: value, Version: version, Unreadable: unreadable}, nil
}

// IsUnreadable reports whether the copy is marked as possibly stale.
func (s *Store) IsUnreadable(item proto.Item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unreadable[item]
}

// MarkUnreadable marks the copy as possibly stale. Marking an item with no
// local copy is a no-op.
func (s *Store) MarkUnreadable(item proto.Item) {
	if !s.table.Has(item) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unreadable[item] = true
}

// MarkAllUnreadable marks every local copy, the conservative step 2 of the
// recovery procedure. NS items are exempt: their copies are refreshed by the
// type-1 control transaction itself.
func (s *Store) MarkAllUnreadable() int {
	items := s.table.Items()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, item := range items {
		if _, isNS := proto.IsNSItem(item); isNS {
			continue
		}
		s.unreadable[item] = true
		n++
	}
	return n
}

// UnreadableItems lists the currently marked copies in sorted order.
func (s *Store) UnreadableItems() []proto.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := make([]proto.Item, 0, len(s.unreadable))
	for item := range s.unreadable {
		items = append(items, item)
	}
	return sortItems(items)
}

// BufferWrite records value as the pending write of txn on item. The value
// becomes visible only when InstallPending moves it to stable state.
func (s *Store) BufferWrite(txn proto.TxnID, item proto.Item, value proto.Value) error {
	return s.buffer(txn, wal.WriteRec{Item: item, Value: value})
}

// BufferRefresh records a copier-style refresh in the same pending set
// BufferWrite uses. The caller holds the exclusive lock on the local copy.
func (s *Store) BufferRefresh(txn proto.TxnID, item proto.Item, value proto.Value, version proto.Version) error {
	return s.buffer(txn, wal.WriteRec{Item: item, Value: value, Refresh: true, Version: version})
}

// buffer puts w in txn's pending set, replacing whatever the transaction
// buffered for the same item before.
func (s *Store) buffer(txn proto.TxnID, w wal.WriteRec) error {
	if !s.table.Has(w.Item) {
		return s.at(noCopy(w.Item))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.pending[txn]
	if set == nil {
		// Room for a usual write set's share (the 4 ops of the ledger's and
		// the load generator's transactions) in one allocation, not one per
		// doubling.
		set = make([]wal.WriteRec, 0, 4)
	}
	i := sort.Search(len(set), func(i int) bool { return set[i].Item >= w.Item })
	if i == len(set) || set[i].Item != w.Item {
		set = append(set, wal.WriteRec{})
		copy(set[i+1:], set[i:])
	}
	set[i] = w
	s.pending[txn] = set
	return nil
}

// Pending returns a copy of everything txn has buffered, sorted by item.
func (s *Store) Pending(txn proto.TxnID) []wal.WriteRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wal.WriteRec(nil), s.pending[txn]...)
}

// DropPending discards everything txn buffered (abort path).
func (s *Store) DropPending(txn proto.TxnID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, txn)
}

// InstallPending is the one commit-time install: everything txn buffered
// under its exclusive locks goes to the table as one Put, writes under
// version and refreshes under the version they carry. It compares no
// versions. The transaction holds the lock on every copy it replaces and a
// refresh is an authoritative snapshot read under that lock, while version
// counters are per-writer commit sequences, not a global order: a current
// NS value ("site up" from a fresh type-1 claim) can carry a numerically
// smaller version than the stale marker it must replace, and a guard would
// resurrect the stale copy.
func (s *Store) InstallPending(txn proto.TxnID, version proto.Version) ([]wal.WriteRec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writes := s.pending[txn]
	if len(writes) == 0 {
		return nil, nil
	}
	for i := range writes {
		if !writes[i].Refresh {
			writes[i].Version = version
		}
	}
	if err := s.table.Put(txn, writes); err != nil {
		return nil, s.at(err)
	}
	for _, w := range writes {
		delete(s.unreadable, w.Item)
	}
	delete(s.pending, txn)
	return writes, nil
}

// InstallDirect commits a single value under an explicit version for the
// one caller that holds no lock and replays out of order: the spooler
// baseline replaying missed updates. If the local copy already carries the
// same or a newer version the install is skipped and the unreadable mark
// still cleared; it returns whether the value was written. This is the only
// version comparison in the storage layer, and it stays until version order
// is sound across writers (ROADMAP item 8), when it can be deleted.
func (s *Store) InstallDirect(item proto.Item, value proto.Value, version proto.Version) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, current, err := s.table.Get(item)
	if err != nil {
		return false, s.at(err)
	}
	installed := current.Less(version)
	if installed {
		if err := s.table.Put(0, []wal.WriteRec{{Item: item, Value: value, Version: version}}); err != nil {
			return false, s.at(err)
		}
	}
	delete(s.unreadable, item)
	return installed, nil
}

// Seed overwrites the value of a copy in place, keeping its initial
// version. Cluster assembly uses it to lay down initial values (for
// example, the nominal session numbers of an already-running system)
// attributed to the synthetic initial transaction.
func (s *Store) Seed(item proto.Item, value proto.Value) error {
	return s.at(s.table.SetValue(item, value))
}

// Crash wipes all volatile state: unreadable marks and pending sets. The
// table survives — a disk table's buffered pages included, which are
// logically durable, every Put having forced its redo record first.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unreadable = make(map[proto.Item]bool)
	s.pending = make(map[proto.TxnID][]wal.WriteRec)
}

// Snapshot returns the state of every local copy, sorted by item, for
// debugging and assertions. A copy that cannot be read fails the snapshot
// instead of being left out of it.
func (s *Store) Snapshot() ([]Copy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := sortItems(s.table.Items())
	out := make([]Copy, 0, len(items))
	for _, item := range items {
		value, version, err := s.table.Get(item)
		if err != nil {
			return nil, s.at(err)
		}
		out = append(out, Copy{Item: item, Value: value, Version: version, Unreadable: s.unreadable[item]})
	}
	return out, nil
}

type stableCopy struct {
	value   proto.Value
	version proto.Version
}

// memTable is the map Table: force-at-commit, nothing to recover. The
// randomized conformance battery uses it as the oracle for the disk table.
type memTable struct {
	mu     sync.Mutex
	copies map[proto.Item]stableCopy
}

// NewMemTable returns an empty in-memory Table.
func NewMemTable() Table {
	return &memTable{copies: make(map[proto.Item]stableCopy)}
}

func noCopy(item proto.Item) error { return fmt.Errorf("%q: %w", item, ErrNoCopy) }

func (t *memTable) Has(item proto.Item) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.copies[item]
	return ok
}

func (t *memTable) Items() []proto.Item {
	t.mu.Lock()
	defer t.mu.Unlock()
	items := make([]proto.Item, 0, len(t.copies))
	for item := range t.copies {
		items = append(items, item)
	}
	return items
}

func (t *memTable) Add(item proto.Item, version proto.Version) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.copies[item]; !ok {
		t.copies[item] = stableCopy{version: version}
	}
	return nil
}

func (t *memTable) Get(item proto.Item) (proto.Value, proto.Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.copies[item]
	if !ok {
		return 0, proto.Version{}, noCopy(item)
	}
	return c.value, c.version, nil
}

func (t *memTable) Put(_ proto.TxnID, writes []wal.WriteRec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range writes {
		if _, ok := t.copies[w.Item]; !ok {
			return noCopy(w.Item)
		}
	}
	for _, w := range writes {
		t.copies[w.Item] = stableCopy{value: w.Value, version: w.Version}
	}
	return nil
}

func (t *memTable) SetValue(item proto.Item, value proto.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.copies[item]
	if !ok {
		return noCopy(item)
	}
	c.value = value
	t.copies[item] = c
	return nil
}
