// Package dm implements the data manager (DM) of one site: the module that
// "carries out the physical operations on the copies stored at the site"
// (§2 of the paper).
//
// The DM enforces the paper's session-number convention: every user-level
// physical request carries the session number the issuing transaction
// believes this site has, and is rejected unless it matches the site's
// actual session number as[k]. Control transactions bypass the check so
// that they can be processed at recovering sites (§3.3).
//
// The DM is also the two-phase-commit participant (lock, buffer, prepare,
// install) and keeps the volatile bookkeeping for the §5 refinements:
// fail-locks and the missing list, i.e. which items each down site has
// missed updates on.
package dm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/spooler"
	"siterecovery/internal/storage"
	"siterecovery/internal/wal"
)

// Tracking selects the §5 missed-update identification bookkeeping.
type Tracking int

// Tracking modes.
const (
	// TrackNone keeps no bookkeeping: the recovering site must mark every
	// copy unreadable (the conservative basic algorithm of §3.4), or rely
	// on copier version comparison.
	TrackNone Tracking = iota + 1
	// TrackFailLock records, per down site, the set of items updated while
	// it was down (Bhargava's fail-locks [5]).
	TrackFailLock
	// TrackMissingList is the full missing list: like fail-locks, plus the
	// recovering site inherits the entries about other still-down sites so
	// it can rebuild its own list (§5).
	TrackMissingList
)

// SeqClock is the slice of the site's transaction sequencer the data
// manager needs: it folds in the commit sequence numbers carried by inbound
// messages and reports the resulting high-water mark in prepare votes, so
// version counters stay ordered by commit order across coordinators even
// when each process draws from an independent strided sequencer.
// *txn.Sequencer implements it.
type SeqClock interface {
	ObserveCommitSeq(seq uint64)
	HighCommitSeq() uint64
}

// Callbacks let the surrounding site hook DM events.
type Callbacks struct {
	// OnUnreadableRead fires when a session-checked read hits an
	// unreadable copy; the recovery manager uses it to trigger an
	// on-demand copier.
	OnUnreadableRead func(item proto.Item)
	// ActiveTxn reports whether this site's transaction manager is still
	// coordinating txn (in-flight, undecided). Decision queries answer
	// "prepared" (in progress) for such transactions instead of the
	// presumed-abort "unknown".
	ActiveTxn func(txn proto.TxnID) bool
}

// Config assembles a DM.
type Config struct {
	Site     proto.SiteID
	Store    storage.Engine
	Locks    *lockmgr.Manager
	Log      *wal.Log
	Recorder *history.Recorder
	Clock    clock.Clock
	Tracking Tracking
	// Obs receives protocol events and metrics; nil is a no-op sink.
	Obs *obs.Hub
	// Spool, when set, enables the message-spooler baseline: committed
	// writes that missed down sites are saved in the local spool store for
	// replay at recovery (instead of, or in addition to, fail-lock
	// bookkeeping).
	Spool *spooler.Store
	// Seq, when set, is the site's commit-sequence clock (see SeqClock).
	// nil is a no-op: a cluster sharing one sequencer is already globally
	// ordered.
	Seq SeqClock
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Tracking == 0 {
		c.Tracking = TrackNone
	}
	return c
}

type txnLocal struct {
	meta proto.TxnMeta
	// missedBy lists, per item written here, the down replica sites the
	// write skipped; made by the first write that skipped one.
	missedBy   map[proto.Item][]proto.SiteID
	prepared   bool
	preparedAt time.Time
	createdAt  time.Time
	// deciding: finishCommit is installing the transaction, or
	// ResolveInDoubt is settling it. It stays in flight, and counted by
	// Prepared, until the install, the participant commit record and any
	// forced-commit count are done.
	deciding bool
}

// Manager is one site's data manager. Create with New.
type Manager struct {
	cfg Config
	cb  Callbacks

	mu       sync.Mutex
	session  proto.Session
	crashed  bool
	inflight map[proto.TxnID]*txnLocal
	// missed[j] is the set of items site j has missed updates on, as known
	// here (fail-locks / missing list; volatile, §5).
	missed map[proto.SiteID]map[proto.Item]bool
}

// New returns a data manager.
func New(cfg Config, cb Callbacks) *Manager {
	return &Manager{
		cfg:      cfg.withDefaults(),
		cb:       cb,
		inflight: make(map[proto.TxnID]*txnLocal),
		missed:   make(map[proto.SiteID]map[proto.Item]bool),
	}
}

// Site returns the owning site.
func (m *Manager) Site() proto.SiteID { return m.cfg.Site }

// Session returns the actual session number as[k] (0 when not operational).
func (m *Manager) Session() proto.Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.session
}

// SetSession loads a session number into as[k]; loading a non-zero value is
// the moment the site becomes operational (§3.4 step 4).
func (m *Manager) SetSession(s proto.Session) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.session = s
}

// Operational reports whether the site accepts user transactions.
func (m *Manager) Operational() bool { return m.Session() != proto.NoSession }

// Alive reports whether the site's process is running at all (it may still
// be recovering). A transaction manager whose site died must stop acting.
func (m *Manager) Alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.crashed
}

// Crash models a fail-stop crash: all volatile state dies (locks, pending
// writes, unreadable marks, fail-locks, in-flight 2PC state, the session
// number); stable storage (committed copies, session counter, WAL) stays.
func (m *Manager) Crash() {
	m.mu.Lock()
	m.crashed = true
	m.session = proto.NoSession
	m.inflight = make(map[proto.TxnID]*txnLocal)
	m.missed = make(map[proto.SiteID]map[proto.Item]bool)
	m.mu.Unlock()
	m.cfg.Store.Crash()
	m.cfg.Locks.CrashReset()
}

// Restart turns the TM/DM pair back on with as[k] = 0: the site is
// recovering, able to process control transactions but not user
// transactions (§3.4 step 1).
func (m *Manager) Restart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
	m.session = proto.NoSession
}

// Handle dispatches one network message. It is the site's wire entry point
// for data operations.
func (m *Manager) Handle(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
	switch req := msg.(type) {
	case proto.ReadReq:
		return reply(m.handleRead(ctx, req))
	case proto.WriteReq:
		return reply(proto.WriteResp{}, m.handleWrite(ctx, req))
	case proto.BatchReq:
		return reply(m.handleBatch(ctx, req))
	case proto.PrepareReq:
		return reply(m.handlePrepare(req))
	case proto.CommitReq:
		return reply(proto.CommitResp{}, m.handleCommit(req))
	case proto.AbortReq:
		return reply(proto.AbortResp{}, m.handleAbort(req))
	case proto.DecisionReq:
		return m.handleDecision(req)
	case proto.ProbeReq:
		return m.handleProbe()
	case proto.MissedFetchReq:
		return m.handleMissedFetch(req)
	default:
		return nil, fmt.Errorf("dm at %v: unhandled message %T", m.cfg.Site, msg)
	}
}

// reply is a typed handler's outcome as Handle returns it: no message with
// an error.
func reply[M proto.Message](resp M, err error) (proto.Message, error) {
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Down is what a crashed site answers every request with, nil while the
// site's process runs: to its peers a crashed site is indistinguishable from
// a refused connection.
func (m *Manager) Down() error {
	if !m.Alive() {
		return fmt.Errorf("site %v crashed: %w", m.cfg.Site, proto.ErrSiteDown)
	}
	return nil
}

// The site's own transaction manager serves its requests to this site
// through Read, Write, Batch, Prepare, Commit and Abort: what the site's wire
// dispatcher does with the message — Down's refusal, then Handle — typed, so
// that neither the request nor the reply is boxed.

// Read serves a ReadReq from the site's own transaction manager.
func (m *Manager) Read(ctx context.Context, req proto.ReadReq) (proto.ReadResp, error) {
	if err := m.Down(); err != nil {
		return proto.ReadResp{}, err
	}
	return m.handleRead(ctx, req)
}

// Write serves a WriteReq from the site's own transaction manager.
func (m *Manager) Write(ctx context.Context, req proto.WriteReq) error {
	if err := m.Down(); err != nil {
		return err
	}
	return m.handleWrite(ctx, req)
}

// Batch serves a BatchReq from the site's own transaction manager.
func (m *Manager) Batch(ctx context.Context, req proto.BatchReq) (proto.BatchResp, error) {
	if err := m.Down(); err != nil {
		return proto.BatchResp{}, err
	}
	return m.handleBatch(ctx, req)
}

// Prepare serves a PrepareReq from the site's own transaction manager.
func (m *Manager) Prepare(req proto.PrepareReq) (proto.PrepareResp, error) {
	if err := m.Down(); err != nil {
		return proto.PrepareResp{}, err
	}
	return m.handlePrepare(req)
}

// Commit serves a CommitReq from the site's own transaction manager.
func (m *Manager) Commit(req proto.CommitReq) error {
	if err := m.Down(); err != nil {
		return err
	}
	return m.handleCommit(req)
}

// Abort serves an AbortReq from the site's own transaction manager.
func (m *Manager) Abort(req proto.AbortReq) error {
	if err := m.Down(); err != nil {
		return err
	}
	return m.handleAbort(req)
}

// gate performs the session-number check of §3.2.
func (m *Manager) gate(meta proto.TxnMeta, mode proto.CheckMode, expect proto.Session) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return proto.ErrSiteDown
	}
	if mode != proto.CheckSession {
		return nil
	}
	if m.session == proto.NoSession {
		m.cfg.Obs.NotOperational(m.cfg.Site, meta.ID)
		return fmt.Errorf("%v serving %v: %w", m.cfg.Site, meta.ID, proto.ErrNotOperational)
	}
	if expect != m.session {
		m.cfg.Obs.SessionMismatch(m.cfg.Site, meta.ID, expect, m.session)
		return fmt.Errorf("%v serving %v: carried %d, actual %d: %w",
			m.cfg.Site, meta.ID, expect, m.session, proto.ErrSessionMismatch)
	}
	// The coordinator must be nominally up too. A site this DM's vector
	// copy records as down can still be running: a type-2 claim excludes
	// unreachable sites (§3.4's retry), and the excluded site keeps
	// coordinating on a stale view, so its writes would reach only a
	// subset of the available copies. Control transactions are exempt — a
	// type-1 coordinator is nominally down by definition.
	if meta.Origin != m.cfg.Site && !meta.Class.IsControl() {
		if v, _, err := m.cfg.Store.Committed(proto.NSItem(meta.Origin)); err == nil && proto.Session(v) == proto.NoSession {
			m.cfg.Obs.NotOperational(m.cfg.Site, meta.ID)
			return fmt.Errorf("%v serving %v: coordinator %v nominally down: %w",
				m.cfg.Site, meta.ID, meta.Origin, proto.ErrNotOperational)
		}
	}
	return nil
}

// track registers the transaction locally so aborts can clean up.
func (m *Manager) track(meta proto.TxnMeta) *txnLocal {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.inflight[meta.ID]
	if !ok {
		t = &txnLocal{meta: meta, createdAt: m.cfg.Clock.Now()}
		m.inflight[meta.ID] = t
	}
	return t
}

func (m *Manager) handleRead(ctx context.Context, req proto.ReadReq) (proto.ReadResp, error) {
	if err := m.gate(req.Txn, req.Mode, req.Expect); err != nil {
		return proto.ReadResp{}, err
	}
	if err := m.cfg.Locks.Acquire(ctx, req.Txn.ID, string(req.Item), lockmgr.Shared); err != nil {
		return proto.ReadResp{}, err
	}
	c, err := m.cfg.Store.CopyOf(req.Item)
	if errors.Is(err, storage.ErrNoCopy) {
		// Nothing here to read: back out the lock.
		m.cfg.Locks.ReleaseOne(req.Txn.ID, string(req.Item))
		return proto.ReadResp{}, fmt.Errorf("%v read %q: %w", m.cfg.Site, req.Item, storage.ErrNoCopy)
	}
	m.track(req.Txn)
	if err != nil {
		return proto.ReadResp{}, err
	}
	if !req.ReadOld && c.Unreadable {
		// Back out the untouched lock and report; the reader either waits
		// for a copier or reads another copy (§3.2 leaves the choice open).
		m.cfg.Locks.ReleaseOne(req.Txn.ID, string(req.Item))
		if m.cb.OnUnreadableRead != nil {
			m.cb.OnUnreadableRead(req.Item)
		}
		return proto.ReadResp{}, fmt.Errorf("%v read %q: %w", m.cfg.Site, req.Item, proto.ErrUnreadable)
	}
	if m.cfg.Recorder != nil && !req.NoRecord {
		m.cfg.Recorder.Read(req.Txn.ID, req.Item, m.cfg.Site, c.Version.Writer)
	}
	return proto.ReadResp{Value: c.Value, Version: c.Version}, nil
}

func (m *Manager) handleWrite(ctx context.Context, req proto.WriteReq) error {
	if err := m.gate(req.Txn, req.Mode, req.Expect); err != nil {
		return err
	}
	if err := m.cfg.Locks.Acquire(ctx, req.Txn.ID, string(req.Item), lockmgr.Exclusive); err != nil {
		return err
	}
	if err := m.cfg.Store.BufferWrite(req.Txn.ID, req.Item, req.Value); err != nil {
		return err
	}
	t := m.track(req.Txn)
	m.mu.Lock()
	t.setMissedBy(req.Item, req.MissedBy)
	m.mu.Unlock()
	return nil
}

// setMissedBy records the sites the latest write of item skipped. Caller
// holds m.mu.
func (t *txnLocal) setMissedBy(item proto.Item, sites []proto.SiteID) {
	switch {
	case len(sites) > 0:
		if t.missedBy == nil {
			t.missedBy = make(map[proto.Item][]proto.SiteID)
		}
		t.missedBy[item] = slices.Clone(sites)
	case t.missedBy != nil:
		delete(t.missedBy, item)
	}
}

// handleBatch executes one coordinator's write set for this site
// atomically: one gate check covers every operation, then one lock-manager
// pass in operation order buffers the writes. A failure part-way drops every
// write the batch buffered, so the batch is all-or-nothing — either every
// operation is pending under its lock or none is (the coordinator's abort
// broadcast releases any locks taken before the failure). With the Prepare
// flag set the two-phase-commit vote rides the batch response, making the
// flush round the prepare round.
func (m *Manager) handleBatch(ctx context.Context, req proto.BatchReq) (proto.BatchResp, error) {
	if err := m.gate(req.Txn, req.Mode, req.Expect); err != nil {
		return proto.BatchResp{}, err
	}
	for _, op := range req.Ops {
		if err := m.cfg.Locks.Acquire(ctx, req.Txn.ID, string(op.Item), lockmgr.Exclusive); err != nil {
			m.cfg.Store.DropPending(req.Txn.ID)
			return proto.BatchResp{}, err
		}
		if err := m.cfg.Store.BufferWrite(req.Txn.ID, op.Item, op.Value); err != nil {
			m.cfg.Store.DropPending(req.Txn.ID)
			return proto.BatchResp{}, err
		}
	}
	t := m.track(req.Txn)
	m.mu.Lock()
	for _, op := range req.Ops {
		t.setMissedBy(op.Item, op.MissedBy)
	}
	m.mu.Unlock()
	if !req.Prepare {
		return proto.BatchResp{Vote: true}, nil
	}
	vote, maxSeq := m.prepare(t)
	return proto.BatchResp{Vote: vote, MaxSeq: maxSeq}, nil
}

// LockExclusive takes an X lock on a local copy without writing yet. The
// copier driver uses it to pin the stale copy before reading the source,
// which closes the race where a concurrent user write refreshes the copy
// and the copier would then clobber it with an older version.
func (m *Manager) LockExclusive(ctx context.Context, meta proto.TxnMeta, item proto.Item) error {
	if !m.cfg.Store.HasCopy(item) {
		return fmt.Errorf("%v lock %q: %w", m.cfg.Site, item, storage.ErrNoCopy)
	}
	if err := m.cfg.Locks.Acquire(ctx, meta.ID, string(item), lockmgr.Exclusive); err != nil {
		return err
	}
	m.track(meta)
	return nil
}

// BufferRefresh buffers a copier-style refresh: at commit the value is
// installed under the original writer's version (package history's
// recording contract). The caller must already hold the X lock via
// LockExclusive.
func (m *Manager) BufferRefresh(meta proto.TxnMeta, item proto.Item, value proto.Value, version proto.Version) error {
	m.track(meta)
	return m.cfg.Store.BufferRefresh(meta.ID, item, value, version)
}

// IsUnreadable exposes the copy mark to the local recovery driver.
func (m *Manager) IsUnreadable(item proto.Item) bool { return m.cfg.Store.IsUnreadable(item) }

func (m *Manager) handlePrepare(req proto.PrepareReq) (proto.PrepareResp, error) {
	m.mu.Lock()
	t, known := m.inflight[req.Txn.ID]
	m.mu.Unlock()
	if !known {
		// We lost this transaction's state (crash) or never saw it.
		return proto.PrepareResp{Vote: false}, nil
	}
	vote, maxSeq := m.prepare(t)
	return proto.PrepareResp{Vote: vote, MaxSeq: maxSeq}, nil
}

// prepare is phase one at this participant, shared by the batch flush and
// the separate prepare round: unless the transaction was wounded, force a
// prepare record carrying everything it buffered here (pending writes and
// copier refreshes) and vote yes. The vote carries the local high-water
// commit sequence number: the coordinator folds it in before picking this
// transaction's number, so the new versions sort above everything installed
// here.
func (m *Manager) prepare(t *txnLocal) (vote bool, maxSeq uint64) {
	id := t.meta.ID
	if m.cfg.Locks.Wounded(id) {
		return false, 0
	}
	m.mu.Lock()
	t.prepared = true
	t.preparedAt = m.cfg.Clock.Now()
	m.mu.Unlock()

	m.cfg.Log.Append(wal.Record{
		Type: wal.RecordPrepare, Role: wal.RoleParticipant,
		Txn: id, Writes: m.cfg.Store.Pending(id), Origin: t.meta.Origin,
	})
	if m.cfg.Seq != nil {
		maxSeq = m.cfg.Seq.HighCommitSeq()
	}
	return true, maxSeq
}

func (m *Manager) handleCommit(req proto.CommitReq) error {
	return m.finishCommit(req.Txn.ID, req.CommitSeq, false)
}

// observeSeq folds a commit sequence number learned from a peer into the
// site's sequencer (no-op without one).
func (m *Manager) observeSeq(seq uint64) {
	if m.cfg.Seq != nil {
		m.cfg.Seq.ObserveCommitSeq(seq)
	}
}

// finishCommit installs everything txn buffered, applies the missed-update
// bookkeeping, logs, records history, and releases locks; forced counts it as
// dm/forced.commit. The transaction stays in flight, marked deciding, until
// all of that but the lock release is done, so Prepared() == 0 means every
// decided transaction is installed and counted. A commit that finds it
// deciding, or already committed, is a duplicate and changes nothing. If the
// install fails the transaction goes back to prepared with its locks, its
// pending set and the copies' marks intact, and stale at once (handBack), so
// the janitor's next sweep re-asks the decision and retries the commit.
func (m *Manager) finishCommit(txn proto.TxnID, commitSeq uint64, forced bool) error {
	m.observeSeq(commitSeq)
	m.mu.Lock()
	t, known := m.inflight[txn]
	if !known || t.deciding {
		m.mu.Unlock()
		if known {
			return nil // a duplicate while the first delivery installs
		}
		if state, _ := m.cfg.Log.Outcome(txn); state == proto.StateCommitted {
			return nil // duplicate delivery
		}
		return fmt.Errorf("%v commit %v: %w", m.cfg.Site, txn, proto.ErrUnknownTxn)
	}
	t.deciding = true
	m.mu.Unlock()
	err := m.commit(t, commitSeq, forced)
	if err != nil {
		m.handBack(t)
	}
	return err
}

// commit is finishCommit past its duplicate check, for a transaction already
// marked deciding. On an install error it returns with the transaction still
// deciding; the caller decides what it keeps before handing it back.
func (m *Manager) commit(t *txnLocal, commitSeq uint64, forced bool) error {
	txn := t.meta.ID
	installed, err := m.cfg.Store.InstallPending(txn, proto.Version{Counter: commitSeq, Writer: txn})
	if err != nil {
		m.cfg.Obs.InstallError(m.cfg.Site)
		return fmt.Errorf("%v commit %v: %w", m.cfg.Site, txn, err)
	}
	for _, w := range installed {
		if m.cfg.Recorder != nil {
			m.cfg.Recorder.Write(txn, w.Item, m.cfg.Site, w.Version.Writer)
		}
		if w.Refresh {
			m.observeSeq(w.Version.Counter)
			continue
		}
		missedBy := t.missedBy[w.Item]
		m.noteMissed(w.Item, missedBy)
		if m.cfg.Spool != nil {
			for _, site := range missedBy {
				m.cfg.Spool.Append(site, proto.SpooledUpdate{
					Item: w.Item, Value: w.Value,
					CommitSeq: commitSeq, Writer: txn,
				})
			}
		}
	}

	m.cfg.Log.Append(wal.Record{
		Type: wal.RecordCommit, Role: wal.RoleParticipant,
		Txn: txn, CommitSeq: commitSeq,
	})
	if forced {
		m.cfg.Obs.Forced(m.cfg.Site, "commit")
	}
	m.mu.Lock()
	if m.inflight[txn] == t { // a crash meanwhile may have replaced it
		delete(m.inflight, txn)
	}
	m.mu.Unlock()
	m.cfg.Locks.ReleaseAll(txn)
	return nil
}

// handBack returns an undecided transaction to the janitor: prepared, no
// longer deciding, and stale at once through its zero preparedAt.
func (m *Manager) handBack(t *txnLocal) {
	m.mu.Lock()
	t.prepared, t.preparedAt, t.deciding = true, time.Time{}, false
	m.mu.Unlock()
}

// noteMissed applies §5 bookkeeping: the committed write of item missed the
// listed down sites.
func (m *Manager) noteMissed(item proto.Item, missed []proto.SiteID) {
	if m.cfg.Tracking == TrackNone || len(missed) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, site := range missed {
		set, ok := m.missed[site]
		if !ok {
			set = make(map[proto.Item]bool)
			m.missed[site] = set
		}
		set[item] = true
	}
}

func (m *Manager) handleAbort(req proto.AbortReq) error {
	if req.ReadOnlyEnd {
		m.mu.Lock()
		delete(m.inflight, req.Txn.ID)
		m.mu.Unlock()
		m.cfg.Locks.ReleaseAll(req.Txn.ID)
		return nil
	}
	m.finishAbort(req.Txn.ID)
	return nil
}

func (m *Manager) finishAbort(txn proto.TxnID) {
	m.mu.Lock()
	_, known := m.inflight[txn]
	delete(m.inflight, txn)
	m.mu.Unlock()
	m.cfg.Store.DropPending(txn)
	if known {
		m.cfg.Log.Append(wal.Record{
			Type: wal.RecordAbort, Role: wal.RoleParticipant, Txn: txn,
		})
	}
	m.cfg.Locks.ReleaseAll(txn)
}

// handleDecision answers a decision query from the log: a logged decision is
// final. Without one the transaction is open ("prepared") only while this
// site's TM still coordinates it; otherwise the answer is "unknown", which
// the asker reads as presumed abort, since a TM that stopped coordinating a
// transaction without logging a commit never will.
func (m *Manager) handleDecision(req proto.DecisionReq) (proto.Message, error) {
	state, seq := m.cfg.Log.Outcome(req.Txn)
	if state != proto.StateCommitted && state != proto.StateAborted {
		state = proto.StateUnknown
		if m.cb.ActiveTxn != nil && m.cb.ActiveTxn(req.Txn) {
			state = proto.StatePrepared
		}
	}
	return proto.DecisionResp{State: state, CommitSeq: seq}, nil
}

func (m *Manager) handleProbe() (proto.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return proto.ProbeResp{
		Operational: !m.crashed && m.session != proto.NoSession,
		Session:     m.session,
	}, nil
}

func (m *Manager) handleMissedFetch(req proto.MissedFetchReq) (proto.Message, error) {
	if m.cfg.Tracking == TrackNone {
		return proto.MissedFetchResp{}, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := proto.MissedFetchResp{}
	for item := range m.missed[req.For] {
		resp.Missed = append(resp.Missed, item)
	}
	sort.Slice(resp.Missed, func(i, j int) bool { return resp.Missed[i] < resp.Missed[j] })
	delete(m.missed, req.For)

	if m.cfg.Tracking == TrackMissingList {
		resp.Others = make(map[proto.SiteID][]proto.Item, len(m.missed))
		for site, items := range m.missed {
			list := make([]proto.Item, 0, len(items))
			for item := range items {
				list = append(list, item)
			}
			sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
			resp.Others[site] = list
		}
	}
	return resp, nil
}

// AdoptMissed merges inherited missing-list entries about other sites
// (§5: a recovering site "forms its own ML using the entries (X, j) seen in
// the MLs at other operational sites").
func (m *Manager) AdoptMissed(others map[proto.SiteID][]proto.Item) {
	if m.cfg.Tracking != TrackMissingList {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for site, items := range others {
		if site == m.cfg.Site {
			continue
		}
		set, ok := m.missed[site]
		if !ok {
			set = make(map[proto.Item]bool)
			m.missed[site] = set
		}
		for _, item := range items {
			set[item] = true
		}
	}
}

// MissedFor exposes the local bookkeeping for tests and experiments.
func (m *Manager) MissedFor(site proto.SiteID) []proto.Item {
	m.mu.Lock()
	defer m.mu.Unlock()
	items := make([]proto.Item, 0, len(m.missed[site]))
	for item := range m.missed[site] {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// StaleTxn is an in-flight transaction whose coordinator has gone quiet.
type StaleTxn struct {
	Meta     proto.TxnMeta
	Prepared bool
}

// StaleTxns returns in-flight transactions that have seen no progress
// within maxAge — prepared ones whose decision never arrived and unprepared
// ones whose coordinator went silent (e.g. a lost reply left locks here).
// The cooperative-termination janitor resolves them.
func (m *Manager) StaleTxns(maxAge time.Duration) []StaleTxn {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []StaleTxn
	for _, t := range m.inflight {
		if t.deciding {
			continue // its decision is being installed, or settled by recovery
		}
		ref := t.createdAt
		if t.prepared {
			ref = t.preparedAt
		}
		if now.Sub(ref) >= maxAge {
			out = append(out, StaleTxn{Meta: t.meta, Prepared: t.prepared})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	return out
}

// Prepared reports how many transactions this site has voted yes on and not
// yet learned the outcome of. A coordinator answers its client at the durable
// decision, before the participants have it, so this — not the client's reply
// — is what says a site's copies reflect every decided transaction:
// non-transactional readers (replica comparisons in tests, srnode's GET
// /status and sr_dm_prepared) wait for it to reach 0.
func (m *Manager) Prepared() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.inflight {
		if t.prepared {
			n++
		}
	}
	return n
}

// ForceCommit applies a commit decision learned via cooperative
// termination, counted as dm/forced.commit once it has installed; a
// duplicate of a commit already installed, or being installed, is not.
func (m *Manager) ForceCommit(txn proto.TxnID, commitSeq uint64) error {
	return m.finishCommit(txn, commitSeq, true)
}

// ForceAbort applies an abort decision learned via cooperative termination
// (or presumed abort), counted as dm/forced.abort.
func (m *Manager) ForceAbort(txn proto.TxnID) {
	m.finishAbort(txn)
	m.cfg.Obs.Forced(m.cfg.Site, "abort")
}

// ResolveInDoubt settles, after a crash, every transaction the stable log
// holds in doubt, in ID order, and returns how many there were. Each becomes
// an ordinary prepared in-flight transaction again, under its logged
// coordinator, with its prepare record's write set restored as its pending
// set; decide supplies the outcome. A commit then ends in the participant's
// own commit, which redoes the install the crash lost, and an abort in its
// own abort. Each outcome counts as recovery/in_doubt.committed, .aborted or
// .unresolved, not as dm/forced.*: until decide has answered, the
// transaction is deciding, which keeps the janitor and duplicate decisions
// off it. A transaction still undecided, or whose write set cannot be
// restored or installed, keeps nothing it buffered, so nothing of it can land
// after the site's type-1 claim: its write set is marked unreadable, and it
// stays prepared and stale at once for the janitor.
func (m *Manager) ResolveInDoubt(decide func(proto.TxnMeta) (proto.TxnState, uint64)) int {
	ids := m.cfg.Log.InDoubt()
	slices.Sort(ids)
	for _, id := range ids {
		writes, origin := m.cfg.Log.PreparedRecord(id)
		restored := true
		for _, w := range writes {
			var err error
			if w.Refresh {
				err = m.cfg.Store.BufferRefresh(id, w.Item, w.Value, w.Version)
			} else {
				err = m.cfg.Store.BufferWrite(id, w.Item, w.Value)
			}
			restored = restored && err == nil
		}
		t := &txnLocal{
			meta:     proto.TxnMeta{ID: id, Origin: origin, Class: proto.ClassUser},
			prepared: true, deciding: true,
		}
		m.mu.Lock()
		m.inflight[id] = t
		m.mu.Unlock()

		outcome := "unresolved"
		switch state, seq := decide(t.meta); state {
		case proto.StateCommitted:
			m.observeSeq(seq)
			if restored && m.commit(t, seq, false) == nil {
				outcome = "committed"
			}
		case proto.StateAborted:
			m.finishAbort(id)
			outcome = "aborted"
		}
		if outcome == "unresolved" {
			m.cfg.Store.DropPending(id)
			for _, w := range writes {
				m.cfg.Store.MarkUnreadable(w.Item)
			}
			m.handBack(t)
		}
		m.cfg.Obs.InDoubt(m.cfg.Site, outcome)
	}
	return len(ids)
}

// Store exposes the underlying store to the site assembly (recovery marks,
// snapshots).
func (m *Manager) Store() storage.Engine { return m.cfg.Store }

// Log exposes the stable log (coordinator-side decision logging, the
// session counter).
func (m *Manager) Log() *wal.Log { return m.cfg.Log }
