// Package lockmgr is a per-site lock manager implementing strict two-phase
// locking over named resources (physical data copies, including the copies
// of the nominal session numbers).
//
// The lock table is sharded by key hash: each shard owns its keys' lock
// states and wait queues under its own mutex, so transactions contending on
// different keys never serialize on a single table lock — the difference
// between one global mutex and usable throughput under the skewed,
// many-client workloads cmd/srload generates. Cross-key state — each
// transaction's record of the keys it has asked for, and its wound flag —
// lives behind a separate small mutex that is only ever taken after a shard
// mutex, never before, so no lock-ordering cycle exists.
//
// Two deadlock-resolution policies are provided, as an ablation of the
// "works with a large group of concurrency control algorithms" claim:
//
//   - PolicyTimeout: a lock request that waits longer than the configured
//     timeout fails with proto.ErrLockTimeout; the transaction manager
//     aborts and retries the transaction.
//   - PolicyWoundWait: an older transaction (smaller TxnID, IDs double as
//     timestamps) wounds younger lock holders, whose in-flight and future
//     requests fail with proto.ErrWounded; a younger transaction waits for
//     older holders. Wait-for cycles are impossible.
//
// Both keep the conflict graph acyclic-by-construction over committed
// transactions (class DCP/DSR), which is the premise of the paper's
// Theorem 3.
package lockmgr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// ErrReleased fails a queued lock request whose transaction was released
// (committed or aborted) while the request was still waiting: the outcome
// reached this site through another path, so granting the lock now would
// hand it to a transaction that will never release it. Every removal of a
// queued request must resolve its ready channel — a request dropped from
// the queue silently strands a waiter whose timeout or cancellation races
// the removal: cancelWait finds the request gone, concludes it was resolved
// concurrently, and blocks forever on a signal nobody will send.
var ErrReleased = errors.New("transaction released while waiting")

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Policy selects the deadlock-resolution scheme.
type Policy int

// Policies.
const (
	PolicyTimeout Policy = iota + 1
	PolicyWoundWait
)

// Config tunes a Manager.
type Config struct {
	// Site labels the metrics this manager emits.
	Site proto.SiteID
	// Obs receives lock waits and wounds; nil is a no-op sink.
	Obs *obs.Hub
	// Clock supplies timer channels and times waits; defaults to the wall
	// clock.
	Clock clock.Clock
	// Timeout bounds lock waits under PolicyTimeout (and acts as a safety
	// net under PolicyWoundWait). Defaults to 2s.
	Timeout time.Duration
	// Policy defaults to PolicyTimeout.
	Policy Policy
	// Shards is the number of hash shards the lock table is split into.
	// Defaults to 16. A value of 1 degenerates to one global table.
	Shards int
	// Waiting, when set, runs once for every request that has to queue,
	// before it waits, outside every mutex of the manager; never for a
	// request granted at once. node.NewSite sets it to the transport's
	// AskPeers, if it has one, so that a decision the holder is waiting
	// for is asked for rather than waited out.
	Waiting func()
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Policy == 0 {
		c.Policy = PolicyTimeout
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	return c
}

// Manager is one site's lock table. Create with New.
type Manager struct {
	cfg    Config
	seed   maphash.Seed
	shards []*shard

	// tmu guards the cross-shard state: txns, every record in it, and free.
	// Lock ordering: a shard mutex may be held when tmu is taken, never the
	// reverse.
	tmu  sync.Mutex
	txns map[proto.TxnID]*txnRec
	free []*txnRec
	// nwounded counts the records flagged wounded, so the check every
	// Acquire starts with takes no mutex while nobody is.
	nwounded atomic.Int32
}

// shard is one hash partition of the lock table. A key has a lock state only
// while it is held or waited for; idle states wait on free to be reused.
type shard struct {
	idx   int
	mu    sync.Mutex
	locks map[string]*lockState
	free  []*lockState
}

type holder struct {
	txn  proto.TxnID
	mode Mode
}

type lockState struct {
	holders []holder
	queue   []*request
}

// request is one queued Acquire.
type request struct {
	txn     proto.TxnID
	mode    Mode
	upgrade bool
	ready   chan error // buffered; receives nil on grant, error on kill
}

// txnRec is one transaction's footprint across the table: every key it was
// granted or queued on since its last ReleaseAll. A key stays listed after
// ReleaseOne, a timeout or a kill; ReleaseAll and the wound sweep visit each
// and find out under its shard mutex what the transaction still has there.
// Records are reached only through Manager.txns, under tmu, until ReleaseAll
// takes one out of the map and owns it.
type txnRec struct {
	keys    []txnKey
	wounded bool
}

type txnKey struct {
	shard int
	key   string
}

// New returns a lock manager.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:    cfg,
		seed:   maphash.MakeSeed(),
		shards: make([]*shard, cfg.Shards),
		txns:   make(map[proto.TxnID]*txnRec),
	}
	for i := range m.shards {
		m.shards[i] = &shard{idx: i, locks: make(map[string]*lockState)}
	}
	return m
}

// shardFor maps a key to its hash shard.
func (m *Manager) shardFor(key string) *shard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	return m.shards[maphash.String(m.seed, key)%uint64(len(m.shards))]
}

// Wounded reports whether txn has been wounded by an older transaction.
// Transaction managers check it at operation boundaries.
func (m *Manager) Wounded(txn proto.TxnID) bool {
	if m.nwounded.Load() == 0 {
		return false
	}
	m.tmu.Lock()
	defer m.tmu.Unlock()
	rec := m.txns[txn]
	return rec != nil && rec.wounded
}

// noteKey lists key in txn's record, making the record on first use. Called
// with the key's shard mutex held, before txn is granted or queued there, so
// a ReleaseAll that finds the record finds the key.
func (m *Manager) noteKey(txn proto.TxnID, s *shard, key string) {
	m.tmu.Lock()
	rec := m.txns[txn]
	if rec == nil {
		if n := len(m.free); n > 0 {
			rec, m.free = m.free[n-1], m.free[:n-1]
		} else {
			rec = &txnRec{}
		}
		m.txns[txn] = rec
	}
	rec.keys = append(rec.keys, txnKey{s.idx, key})
	m.tmu.Unlock()
}

// Acquire obtains a lock on key in the given mode on behalf of txn,
// blocking until granted, killed, timed out, or the context is done.
// Re-entrant acquisition is a no-op; Shared→Exclusive upgrades are
// supported and take priority over queued waiters (an upgrader already
// excludes any queued Exclusive from ever being granted first).
func (m *Manager) Acquire(ctx context.Context, txn proto.TxnID, key string, mode Mode) error {
	if m.Wounded(txn) {
		return fmt.Errorf("lock %q: %w", key, proto.ErrWounded)
	}
	s := m.shardFor(key)
	s.mu.Lock()
	ls := s.lockState(key)

	held := ls.holderIndex(txn)
	if held >= 0 && ls.holders[held].mode >= mode {
		s.mu.Unlock()
		return nil // re-entrant
	}
	upgrade := held >= 0 // holds Shared, wants Exclusive
	if !upgrade {
		m.noteKey(txn, s, key) // a holder's key is listed already
	}
	// FIFO fairness: a fresh request is granted at once only when nothing is
	// queued ahead of it; an upgrade needs to be the sole holder.
	if upgrade && len(ls.holders) == 1 || !upgrade && len(ls.queue) == 0 && ls.compatible(mode) {
		ls.grant(txn, mode)
		s.mu.Unlock()
		return nil
	}

	// Must wait.
	req := &request{txn: txn, mode: mode, upgrade: upgrade, ready: make(chan error, 1)}
	if upgrade {
		// Upgrades go to the head of the queue: the upgrader's Shared hold
		// already blocks every queued Exclusive, so ordering it first is
		// the only deadlock-free choice.
		ls.queue = append([]*request{req}, ls.queue...)
	} else {
		ls.queue = append(ls.queue, req)
	}

	var victims []proto.TxnID
	if m.cfg.Policy == PolicyWoundWait {
		victims = m.woundYoungerHoldersLocked(ls, txn)
	}
	// Re-check the wound flag now that the request is enqueued (shard mutex
	// still held, tmu nested inside — the allowed order). Either this
	// enqueue is visible to a concurrent wound's shard sweep, or the sweep's
	// mark is visible here; both ways the wounded waiter unblocks promptly
	// instead of riding out the timeout.
	if m.Wounded(txn) {
		ls.removeQueued(req)
		s.retire(key, ls)
		s.mu.Unlock()
		m.cfg.Obs.LockWait(m.cfg.Site, 0) // queued, then left at once
		return fmt.Errorf("lock %q: %w", key, proto.ErrWounded)
	}
	s.mu.Unlock()

	// Fail the victims' requests queued in OTHER shards, outside this
	// shard's mutex (shard mutexes never nest).
	m.sweepWoundedWaiters(victims)
	if m.cfg.Waiting != nil {
		m.cfg.Waiting()
	}

	start := m.cfg.Clock.Now()
	err := m.await(ctx, s, key, req)
	m.cfg.Obs.LockWait(m.cfg.Site, m.cfg.Clock.Since(start))
	return err
}

// await blocks on a queued request until it is resolved, times out, or ctx
// is done.
func (m *Manager) await(ctx context.Context, s *shard, key string, req *request) error {
	var gaveUp error
	select {
	case err := <-req.ready:
		if err != nil {
			return fmt.Errorf("lock %q: %w", key, err)
		}
		return nil
	case <-m.cfg.Clock.After(m.cfg.Timeout):
		gaveUp = proto.ErrLockTimeout
	case <-ctx.Done():
		gaveUp = ctx.Err()
	}
	granted, killErr := m.cancelWait(s, key, req)
	switch {
	case killErr != nil:
		return fmt.Errorf("lock %q: %w", key, killErr)
	case granted:
		return nil // grant won the race; the lock is held
	}
	return fmt.Errorf("lock %q: %w", key, gaveUp)
}

// cancelWait removes a queued request after a timeout or cancellation and
// promotes any waiters the removal unblocked. If the request was resolved
// concurrently it reports the outcome instead: granted (the caller holds the
// lock) or the kill error.
func (m *Manager) cancelWait(s *shard, key string, req *request) (granted bool, killErr error) {
	s.mu.Lock()
	if ls := s.locks[key]; ls != nil && ls.removeQueued(req) {
		grants := ls.promote(nil)
		s.retire(key, ls)
		s.mu.Unlock()
		deliver(grants)
		return false, nil // successfully cancelled
	}
	s.mu.Unlock()
	// Not in the queue: the request was resolved concurrently.
	if err := <-req.ready; err != nil {
		return false, err
	}
	return true, nil
}

// ReleaseAll releases every lock held by txn, fails its queued requests,
// and forgets the transaction. It is the only release operation: strict
// two-phase locking releases at commit or abort only. Shards are visited in
// index order and keys in sorted order within each, and only the shards the
// transaction has keys in.
func (m *Manager) ReleaseAll(txn proto.TxnID) {
	// Forgetting the record clears the wound flag too; a concurrent wound
	// marks only transactions it finds a record for.
	m.tmu.Lock()
	rec := m.txns[txn]
	if rec == nil {
		m.tmu.Unlock()
		return
	}
	delete(m.txns, txn)
	if rec.wounded {
		rec.wounded = false
		m.nwounded.Add(-1)
	}
	m.tmu.Unlock()

	keys := rec.keys
	slices.SortFunc(keys, func(a, b txnKey) int {
		return cmp.Or(cmp.Compare(a.shard, b.shard), cmp.Compare(a.key, b.key))
	})
	var grants []grant
	for i := 0; i < len(keys); {
		s := m.shards[keys[i].shard]
		grants = grants[:0]
		s.mu.Lock()
		for ; i < len(keys) && keys[i].shard == s.idx; i++ {
			key := keys[i].key
			ls := s.locks[key]
			if ls == nil || i > 0 && keys[i-1] == keys[i] {
				continue
			}
			ls.removeHolder(txn)
			// Resolve the transaction's own requests: their Acquires may be
			// parked in the wait select or already racing us in cancelWait.
			grants = ls.failQueued(txn, ErrReleased, grants)
			grants = ls.promote(grants)
			s.retire(key, ls)
		}
		s.mu.Unlock()
		deliver(grants)
	}

	clear(keys) // drop the key strings
	rec.keys = keys[:0]
	m.tmu.Lock()
	m.free = append(m.free, rec)
	m.tmu.Unlock()
}

// ReleaseOne releases txn's lock on a single key and promotes waiters.
// Strict two-phase locking forbids early release of a lock that protected
// an observed value; the only legitimate use is backing out of a lock whose
// protected state was never read or written (e.g. a shared lock acquired on
// a copy that turned out to be unreadable).
func (m *Manager) ReleaseOne(txn proto.TxnID, key string) {
	s := m.shardFor(key)
	s.mu.Lock()
	ls := s.locks[key]
	if ls == nil {
		s.mu.Unlock()
		return
	}
	ls.removeHolder(txn)
	grants := ls.promote(nil)
	s.retire(key, ls)
	s.mu.Unlock()
	deliver(grants)
}

// keysOf copies the keys listed for txn.
func (m *Manager) keysOf(txn proto.TxnID) []txnKey {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if rec := m.txns[txn]; rec != nil {
		return append([]txnKey(nil), rec.keys...)
	}
	return nil
}

// Held returns the locks currently held by txn (for tests and debugging).
func (m *Manager) Held(txn proto.TxnID) map[string]Mode {
	out := make(map[string]Mode)
	for _, k := range m.keysOf(txn) {
		s := m.shards[k.shard]
		s.mu.Lock()
		if ls := s.locks[k.key]; ls != nil {
			if i := ls.holderIndex(txn); i >= 0 {
				out[k.key] = ls.holders[i].mode
			}
		}
		s.mu.Unlock()
	}
	return out
}

// HeldLock describes one granted lock in the table.
type HeldLock struct {
	Key  string
	Txn  proto.TxnID
	Mode Mode
}

// OutstandingLocks enumerates every lock currently granted, sorted by key
// then holder. Strict two-phase locking releases everything at commit or
// abort, so on a quiesced site the result must be empty — the chaos
// invariant suite checks exactly that (a leaked lock means a transaction
// ended without ReleaseAll).
func (m *Manager) OutstandingLocks() []HeldLock {
	var out []HeldLock
	for _, s := range m.shards {
		s.mu.Lock()
		for key, ls := range s.locks {
			for _, h := range ls.holders {
				out = append(out, HeldLock{Key: key, Txn: h.txn, Mode: h.mode})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Txn < out[j].Txn
	})
	return out
}

// CrashReset drops the whole lock table (volatile state) and fails every
// waiter with proto.ErrSiteDown semantics via proto.ErrTxnAborted.
func (m *Manager) CrashReset() {
	var waiters []*request
	for _, s := range m.shards {
		s.mu.Lock()
		for _, ls := range s.locks {
			waiters = append(waiters, ls.queue...)
		}
		s.locks = make(map[string]*lockState)
		s.free = nil
		s.mu.Unlock()
	}
	m.tmu.Lock()
	m.txns = make(map[proto.TxnID]*txnRec)
	m.free = nil
	m.nwounded.Store(0)
	m.tmu.Unlock()
	for _, req := range waiters {
		req.ready <- proto.ErrTxnAborted
	}
}

// --- shard internals (s.mu held unless noted) ---

// lockState returns key's lock state, an idle one when the key has none.
func (s *shard) lockState(key string) *lockState {
	ls, ok := s.locks[key]
	if !ok {
		if n := len(s.free); n > 0 {
			ls, s.free = s.free[n-1], s.free[:n-1]
		} else {
			ls = &lockState{}
		}
		s.locks[key] = ls
	}
	return ls
}

// retire takes key's lock state out of the table once nothing holds or
// awaits it, keeping it (and its slices' capacity) for the next key.
func (s *shard) retire(key string, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(s.locks, key)
		s.free = append(s.free, ls)
	}
}

// holderIndex finds txn among the holders, -1 when it holds nothing here.
func (ls *lockState) holderIndex(txn proto.TxnID) int {
	for i, h := range ls.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

func (ls *lockState) removeHolder(txn proto.TxnID) {
	if i := ls.holderIndex(txn); i >= 0 {
		ls.holders = append(ls.holders[:i], ls.holders[i+1:]...)
	}
}

// grant makes txn a holder in mode, or raises the mode it holds.
func (ls *lockState) grant(txn proto.TxnID, mode Mode) {
	if i := ls.holderIndex(txn); i >= 0 {
		ls.holders[i].mode = mode
		return
	}
	ls.holders = append(ls.holders, holder{txn, mode})
}

// removeQueued drops req from the wait queue and reports whether it was
// still there; whoever removes a request is the one to resolve it.
func (ls *lockState) removeQueued(req *request) bool {
	i := slices.Index(ls.queue, req)
	if i >= 0 {
		ls.queue = slices.Delete(ls.queue, i, i+1)
	}
	return i >= 0
}

// failQueued removes every request txn has queued here and appends its
// resolution with err to grants.
func (ls *lockState) failQueued(txn proto.TxnID, err error, grants []grant) []grant {
	ls.queue = slices.DeleteFunc(ls.queue, func(r *request) bool {
		if r.txn == txn {
			grants = append(grants, grant{req: r, err: err})
		}
		return r.txn == txn
	})
	return grants
}

// compatible reports whether a new holder in mode can join the holders.
func (ls *lockState) compatible(mode Mode) bool {
	if mode == Exclusive {
		return len(ls.holders) == 0
	}
	for _, h := range ls.holders {
		if h.mode == Exclusive {
			return false
		}
	}
	return true
}

// grant resolves one queued request: err nil hands it the lock, non-nil
// fails it. A request is signalled exactly once, always after it has been
// removed from the queue under the shard mutex.
type grant struct {
	req *request
	err error
}

// deliver signals grants outside any shard mutex. The ready channels are
// buffered, so delivery never blocks even when the waiter has already moved
// on to cancelWait.
func deliver(grants []grant) {
	for _, g := range grants {
		g.req.ready <- g.err
	}
}

// promote grants queued requests that have become compatible, in queue
// order, and appends the grants to signal outside the lock.
func (ls *lockState) promote(grants []grant) []grant {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if req.upgrade {
			if i := ls.holderIndex(req.txn); i < 0 || len(ls.holders) != 1 {
				break
			}
		} else if !ls.compatible(req.mode) {
			break
		}
		ls.queue = ls.queue[1:]
		ls.grant(req.txn, req.mode)
		grants = append(grants, grant{req: req})
		if req.mode == Exclusive {
			break
		}
	}
	return grants
}

// woundYoungerHoldersLocked implements wound-wait: the waiting transaction
// marks every younger holder of the contested lock wounded (the key's shard
// mutex is held; tmu nests inside it). The caller fails the victims' queued
// requests, in whatever shard, via sweepWoundedWaiters once the shard mutex
// is released; their future Acquires are rejected by the flag, and their
// manager will abort them and ReleaseAll.
func (m *Manager) woundYoungerHoldersLocked(ls *lockState, waiter proto.TxnID) []proto.TxnID {
	var victims []proto.TxnID
	m.tmu.Lock()
	for _, h := range ls.holders {
		if h.txn <= waiter { // older or self: wait politely
			continue
		}
		// A holder without a record is inside ReleaseAll already.
		rec := m.txns[h.txn]
		if rec == nil || rec.wounded {
			continue
		}
		rec.wounded = true
		m.nwounded.Add(1)
		victims = append(victims, h.txn)
	}
	m.tmu.Unlock()
	return victims
}

// sweepWoundedWaiters counts the freshly wounded victims and fails every
// queued request of theirs, at every key they have listed, so they unblock
// fast. Called without any shard mutex held.
func (m *Manager) sweepWoundedWaiters(victims []proto.TxnID) {
	for _, victim := range victims {
		m.cfg.Obs.LockWound(m.cfg.Site)
		var killed []grant
		for _, k := range m.keysOf(victim) {
			s := m.shards[k.shard]
			s.mu.Lock()
			if ls := s.locks[k.key]; ls != nil {
				killed = ls.failQueued(victim, proto.ErrWounded, killed)
			}
			s.mu.Unlock()
		}
		deliver(killed)
	}
}
