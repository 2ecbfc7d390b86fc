// Package storage is the per-site store of physical data copies.
//
// An Engine models one site's disk-plus-memory state with an explicit split
// between what survives a crash and what does not:
//
//   - stable (survives Crash): the committed value and version of every
//     local physical copy, and the site's session-number counter;
//   - volatile (lost on Crash): unreadable marks, and pending (uncommitted)
//     writes buffered for in-flight transactions.
//
// Two engines implement the interface. Mem (this package) keeps copies in a
// map and models force-at-commit durability: InstallPending synchronously
// moves a value into stable state, so page-level crash recovery is
// unnecessary and internal/wal only remembers two-phase-commit outcomes.
// The disk engine (storage/disk) keeps copies on slotted heap pages behind a
// buffer pool and is redo-logged: installs append physical redo records to
// the write-ahead log before touching pages (WAL-before-data), and a restart
// replays the log to rebuild committed state that never reached the heap
// file.
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

// Engine is the pluggable storage seam: the per-site store of physical
// copies that internal/dm, internal/node, and internal/core operate
// against. Every implementation must preserve the stable/volatile split
// documented on each method — storage/enginetest is the conformance suite
// that checks it.
type Engine interface {
	// Site returns the owning site.
	Site() proto.SiteID
	// AddItem adds a local copy initialized to value 0 under initialWriter's
	// version. Adding an existing item is a no-op.
	AddItem(item proto.Item, initialWriter proto.TxnID)
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
	// MarkUnreadable marks the copy as possibly stale. Marking an item with
	// no local copy is a no-op.
	MarkUnreadable(item proto.Item)
	// MarkAllUnreadable marks every local copy except NS items and returns
	// how many it marked.
	MarkAllUnreadable() int
	// ClearUnreadable removes the stale mark from a copy.
	ClearUnreadable(item proto.Item)
	// UnreadableItems lists the currently marked copies in sorted order.
	UnreadableItems() []proto.Item
	// BufferWrite records value as the pending write of txn on item.
	BufferWrite(txn proto.TxnID, item proto.Item, value proto.Value) error
	// PendingWrites returns a copy of txn's buffered writes.
	PendingWrites(txn proto.TxnID) map[proto.Item]proto.Value
	// HasPending reports whether txn has buffered writes here.
	HasPending(txn proto.TxnID) bool
	// DropPending discards txn's buffered writes (abort path).
	DropPending(txn proto.TxnID)
	// InstallPending commits txn's buffered writes under version, clearing
	// unreadable marks on the written copies, and returns the installed
	// items in sorted order.
	InstallPending(txn proto.TxnID, version proto.Version) []proto.Item
	// InstallDirect commits a single value under an explicit version,
	// bypassing the pending buffer; the install is skipped (but the
	// unreadable mark still cleared) unless version is newer than the local
	// copy's. It reports whether the value was written.
	InstallDirect(item proto.Item, value proto.Value, version proto.Version) (bool, error)
	// InstallRefresh commits an authoritative snapshot read from an
	// operational site, replacing the local copy unconditionally and
	// clearing its unreadable mark. Copier and session-claim refreshes
	// need this: version counters carry per-writer commit sequences and
	// are not monotone across writers, so a current value can legitimately
	// carry a numerically smaller version than the stale copy it replaces
	// (e.g. a type-1 claim's "site up" overwriting an exclusion's "site
	// down"). Callers serialize via the copier's exclusive local lock.
	InstallRefresh(item proto.Item, value proto.Value, version proto.Version) error
	// Seed overwrites the value of a copy in place, keeping its current
	// version (cluster assembly only).
	Seed(item proto.Item, value proto.Value) error
	// NextSession durably advances and returns the site's session counter.
	NextSession() proto.Session
	// SetSessionSink installs a callback invoked with every advanced
	// counter value before NextSession returns, in order.
	SetSessionSink(sink func(proto.Session))
	// CurrentSessionCounter reports the highest session number used so far.
	CurrentSessionCounter() proto.Session
	// SetSessionCounter overrides the stable counter.
	SetSessionCounter(v proto.Session)
	// Crash wipes all volatile state (unreadable marks, pending writes);
	// stable copies and the session counter survive.
	Crash()
	// Snapshot returns the state of every local copy, sorted by item.
	Snapshot() []Copy
}

// Deps is what cluster assembly hands an engine factory: the identity and
// initial layout of the site, plus the site's stable log for engines that
// write physical redo records (Mem ignores it).
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

type stableCopy struct {
	value   proto.Value
	version proto.Version
}

// Mem holds one site's physical copies in memory with force-at-commit
// durability. Create with NewMem.
type Mem struct {
	site proto.SiteID

	mu sync.Mutex
	// stable state
	copies      map[proto.Item]stableCopy
	session     proto.Session // highest session number ever used by this site
	sessionSink func(proto.Session)
	// volatile state
	unreadable map[proto.Item]bool
	pending    map[proto.TxnID]map[proto.Item]proto.Value
}

// NewMem returns an in-memory engine for site holding the given items, each
// initialized to value 0 written by initialWriter (the synthetic initial
// transaction of the serializability theory).
func NewMem(site proto.SiteID, items []proto.Item, initialWriter proto.TxnID) *Mem {
	s := &Mem{
		site:       site,
		copies:     make(map[proto.Item]stableCopy, len(items)),
		unreadable: make(map[proto.Item]bool),
		pending:    make(map[proto.TxnID]map[proto.Item]proto.Value),
	}
	for _, item := range items {
		s.copies[item] = stableCopy{version: proto.Version{Writer: initialWriter}}
	}
	return s
}

// Site returns the owning site.
func (s *Mem) Site() proto.SiteID { return s.site }

// AddItem adds a local copy (used to lay out NS items and by tests).
func (s *Mem) AddItem(item proto.Item, initialWriter proto.TxnID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.copies[item]; !ok {
		s.copies[item] = stableCopy{version: proto.Version{Writer: initialWriter}}
	}
}

// HasCopy reports whether the site stores a copy of item.
func (s *Mem) HasCopy(item proto.Item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.copies[item]
	return ok
}

// Items lists the local copies in sorted order.
func (s *Mem) Items() []proto.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := make([]proto.Item, 0, len(s.copies))
	for item := range s.copies {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// Committed returns the committed value and version of the local copy.
// It does not consult the unreadable mark; callers gate on IsUnreadable.
func (s *Mem) Committed(item proto.Item) (proto.Value, proto.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.copies[item]
	if !ok {
		return 0, proto.Version{}, fmt.Errorf("%v %q: %w", s.site, item, ErrNoCopy)
	}
	return c.value, c.version, nil
}

// IsUnreadable reports whether the copy is marked as possibly stale.
func (s *Mem) IsUnreadable(item proto.Item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unreadable[item]
}

// MarkUnreadable marks the copy as possibly stale. Marking an item with no
// local copy is a no-op.
func (s *Mem) MarkUnreadable(item proto.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.copies[item]; ok {
		s.unreadable[item] = true
	}
}

// MarkAllUnreadable marks every local copy, the conservative step 2 of the
// recovery procedure. NS items are exempt: their copies are refreshed by the
// type-1 control transaction itself.
func (s *Mem) MarkAllUnreadable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for item := range s.copies {
		if _, isNS := proto.IsNSItem(item); isNS {
			continue
		}
		s.unreadable[item] = true
		n++
	}
	return n
}

// ClearUnreadable removes the stale mark from a copy.
func (s *Mem) ClearUnreadable(item proto.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.unreadable, item)
}

// UnreadableItems lists the currently marked copies in sorted order.
func (s *Mem) UnreadableItems() []proto.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := make([]proto.Item, 0, len(s.unreadable))
	for item := range s.unreadable {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// BufferWrite records value as the pending write of txn on item. The value
// becomes visible only when Install moves it to stable state.
func (s *Mem) BufferWrite(txn proto.TxnID, item proto.Item, value proto.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.copies[item]; !ok {
		return fmt.Errorf("%v %q: %w", s.site, item, ErrNoCopy)
	}
	m, ok := s.pending[txn]
	if !ok {
		m = make(map[proto.Item]proto.Value)
		s.pending[txn] = m
	}
	m[item] = value
	return nil
}

// PendingWrites returns a copy of txn's buffered writes.
func (s *Mem) PendingWrites(txn proto.TxnID) map[proto.Item]proto.Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pending[txn]
	out := make(map[proto.Item]proto.Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// HasPending reports whether txn has buffered writes here.
func (s *Mem) HasPending(txn proto.TxnID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pending[txn]
	return ok
}

// DropPending discards txn's buffered writes (abort path).
func (s *Mem) DropPending(txn proto.TxnID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, txn)
}

// InstallPending commits txn's buffered writes under the given version,
// clearing unreadable marks on the written copies, and discards the buffer.
// It returns the installed items.
func (s *Mem) InstallPending(txn proto.TxnID, version proto.Version) []proto.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pending[txn]
	items := make([]proto.Item, 0, len(m))
	for item, value := range m {
		s.copies[item] = stableCopy{value: value, version: version}
		delete(s.unreadable, item)
		items = append(items, item)
	}
	delete(s.pending, txn)
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// InstallDirect commits a single value under an explicit version, bypassing
// the pending buffer. Copier refreshes use it to install the source copy's
// original version (the copier acts on behalf of the original writer, per
// the revised READ-FROM semantics of §4.1), and the spooler baseline uses it
// to replay missed updates. If the local copy already carries the same or a
// newer version the install is skipped and the unreadable mark still
// cleared; it returns whether the value was written.
func (s *Mem) InstallDirect(item proto.Item, value proto.Value, version proto.Version) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.copies[item]
	if !ok {
		return false, fmt.Errorf("%v %q: %w", s.site, item, ErrNoCopy)
	}
	installed := c.version.Less(version)
	if installed {
		s.copies[item] = stableCopy{value: value, version: version}
	}
	delete(s.unreadable, item)
	return installed, nil
}

// InstallRefresh replaces the local copy with an authoritative snapshot
// from an operational site, regardless of how the versions compare, and
// clears the unreadable mark.
func (s *Mem) InstallRefresh(item proto.Item, value proto.Value, version proto.Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.copies[item]; !ok {
		return fmt.Errorf("%v %q: %w", s.site, item, ErrNoCopy)
	}
	s.copies[item] = stableCopy{value: value, version: version}
	delete(s.unreadable, item)
	return nil
}

// Seed overwrites the value of a copy in place, keeping its initial
// version. Cluster assembly uses it to lay down initial values (for
// example, the nominal session numbers of an already-running system)
// attributed to the synthetic initial transaction.
func (s *Mem) Seed(item proto.Item, value proto.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.copies[item]
	if !ok {
		return fmt.Errorf("%v %q: %w", s.site, item, ErrNoCopy)
	}
	c.value = value
	s.copies[item] = c
	return nil
}

// NextSession durably advances and returns the site's session counter.
// Session numbers are unique in the site's history (§3.1).
func (s *Mem) NextSession() proto.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.session++
	if s.sessionSink != nil {
		s.sessionSink(s.session)
	}
	return s.session
}

// SetSessionSink installs a callback invoked with every advanced counter
// value before NextSession returns: the §3.1 "counter on stable storage"
// hook. cmd/srnode persists it to disk so a SIGKILLed, restarted process
// cannot reuse a session number. The sink runs under the store lock, so
// observers see counter values in order.
func (s *Mem) SetSessionSink(sink func(proto.Session)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessionSink = sink
}

// CurrentSessionCounter reports the highest session number used so far.
func (s *Mem) CurrentSessionCounter() proto.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session
}

// SetSessionCounter overrides the stable counter (session-recycling tests).
func (s *Mem) SetSessionCounter(v proto.Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.session = v
}

// Crash wipes all volatile state: unreadable marks and pending writes.
// Stable copies and the session counter survive.
func (s *Mem) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unreadable = make(map[proto.Item]bool)
	s.pending = make(map[proto.TxnID]map[proto.Item]proto.Value)
}

// Snapshot returns the state of every local copy, sorted by item, for
// debugging and assertions.
func (s *Mem) Snapshot() []Copy {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Copy, 0, len(s.copies))
	for item, c := range s.copies {
		out = append(out, Copy{
			Item:       item,
			Value:      c.value,
			Version:    c.version,
			Unreadable: s.unreadable[item],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// compile-time conformance
var _ Engine = (*Mem)(nil)
