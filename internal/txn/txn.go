// Package txn implements the transaction manager (TM) of one site: the
// module that "supervises the execution of transactions and interprets
// logical operations into requests for physical operations" (§2).
//
// The TM executes the ROWAA convention of §3.2 — each user transaction
// implicitly reads the local copy of the nominal session vector before any
// other operation, then interprets READ as one copy at a nominally-up site
// and WRITE as all copies at nominally-up sites, carrying the perceived
// session number on every physical request — as well as the baseline
// interpretations (strict ROWA, naive write-available, majority quorum)
// selected by the replication profile.
//
// It is also the two-phase-commit coordinator (presumed abort: the commit
// decision is logged before commit messages go out; no abort is logged) and
// the retry loop that re-runs transactions aborted by stale views, lock
// conflicts, wounds, or site failures. The logged decision is the commit
// point: a caller that put an Answerer on RunClass's context hears of the
// commit there, and Commit then posts the decision to the remote
// participants and returns without waiting for them to install, which they
// do under the exclusive locks they have held since they voted. Outcomes are
// counted on the obs hub (txn/begin, commit, abort.<reason>, giveup), not by
// the manager.
package txn

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/dm"
	"siterecovery/internal/history"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/transport"
	"siterecovery/internal/wal"
)

// Sequencer hands out cluster-unique transaction identifiers and commit
// sequence numbers. With a shared instance (the simulator) the counters are
// globally ordered by construction; with per-process strided instances
// (srnode) ObserveCommitSeq makes the commit counter a Lamport clock —
// every commit sequence number a site learns from a peer pushes its own
// counter past it — so version comparisons (storage's install guard, quorum
// and total-failure recency picks) reflect commit order across coordinators.
type Sequencer struct {
	base   uint64
	stride uint64
	txn    atomic.Uint64
	commit atomic.Uint64
	// high is the largest commit sequence number generated or observed.
	high atomic.Uint64
}

// NewSequencer returns a sequencer whose first transaction ID is 2 (ID 1 is
// reserved for the synthetic initial transaction of the history theory).
func NewSequencer() *Sequencer {
	s := &Sequencer{stride: 1}
	s.txn.Store(1)
	return s
}

// NewStridedSequencer returns a sequencer for site (1-based) in an n-site
// cluster whose IDs are base + n*k with base = site-1: each process draws
// from a residue class of its own, so srnode sites allocate cluster-unique
// transaction IDs and commit sequence numbers without coordination. The
// internal counter starts at 2, so every ID exceeds n and never collides
// with InitialTxn.
func NewStridedSequencer(site proto.SiteID, n int) *Sequencer {
	if n < 1 {
		n = 1
	}
	s := &Sequencer{base: uint64(site-1) % uint64(n), stride: uint64(n)}
	s.txn.Store(1)
	return s
}

// InitialTxn is the ID of the synthetic transaction that wrote every
// initial copy.
const InitialTxn proto.TxnID = 1

// txnEpochShift positions the incarnation epoch above the per-life txn
// counter: 2^32 transactions per incarnation before an overlap.
const txnEpochShift = 32

// SeedTxnIDs jumps the transaction counter to an incarnation epoch. A
// respawned process re-runs NewStridedSequencer from zero, and its residue
// class protects it only from OTHER sites — not from its own dead
// incarnation, whose transaction IDs may still be prepared (in doubt) at
// peers. Re-allocating one of those IDs aliases a fresh transaction onto a
// dead one's buffered writes, so a participant commits both write sets as
// one transaction. Commit sequence numbers need no such seed: they are
// Lamport-folded through the prepare handshake before a new incarnation
// generates any, whereas transaction IDs are allocated before first peer
// contact. Epoch 0 (the first life) leaves the counter where NewSequencer
// put it.
func (s *Sequencer) SeedTxnIDs(epoch uint64) {
	s.txn.Store(epoch<<txnEpochShift | 1)
}

// The data manager folds observed commit sequence numbers back through this
// interface.
var _ dm.SeqClock = (*Sequencer)(nil)

// NextTxn returns a fresh transaction ID.
func (s *Sequencer) NextTxn() proto.TxnID {
	return proto.TxnID(s.base + s.stride*s.txn.Add(1))
}

// NextCommitSeq returns a fresh commit sequence number. It exceeds every
// number this sequencer has generated or observed.
func (s *Sequencer) NextCommitSeq() uint64 {
	seq := s.base + s.stride*s.commit.Add(1)
	raiseMax(&s.high, seq)
	return seq
}

// ObserveCommitSeq folds a commit sequence number learned from a peer —
// a commit decision, a version on a read reply or refresh, a prepare
// acknowledgement — into the sequencer: later NextCommitSeq results exceed
// seq. On a shared sequencer every observed number was generated by the same
// counter, so this never moves it and the deterministic schedules are
// unchanged.
func (s *Sequencer) ObserveCommitSeq(seq uint64) {
	raiseMax(&s.high, seq)
	if seq < s.base {
		return
	}
	// The next generated number is base + stride*(commit+1); lift commit so
	// that value lands strictly above seq.
	target := (seq - s.base) / s.stride
	for {
		cur := s.commit.Load()
		if cur >= target || s.commit.CompareAndSwap(cur, target) {
			return
		}
	}
}

// HighCommitSeq reports the largest commit sequence number this sequencer
// has generated or observed. Participants attach it to their prepare votes
// so the coordinator's commit sequence number exceeds the version of every
// copy the transaction overwrites.
func (s *Sequencer) HighCommitSeq() uint64 {
	return s.high.Load()
}

func raiseMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Callbacks hook TM events.
type Callbacks struct {
	// OnSiteDown fires when a physical operation fails with ErrSiteDown,
	// carrying the nominal session number the transaction's view held for
	// the site (NoSession when the transaction had no view). The session
	// manager uses it to trigger a conditional type-2 control transaction.
	// It must not block.
	OnSiteDown func(site proto.SiteID, observed proto.Session)
	// OnPrepared and OnDecided are fault-injection points for tests: they
	// fire after every participant voted yes (before the commit decision
	// is logged) and right after the decision is logged (before commit
	// messages go out).
	OnPrepared func(id proto.TxnID)
	OnDecided  func(id proto.TxnID)
}

// An Answerer is how the caller of RunClass hears that its transaction
// committed as early as that is certain: for a writing transaction right
// after the coordinator's decision record (and OnDecided), for a read-only
// one right after its last read, before its shared locks are released.
// Answer runs on RunClass's goroutine, ahead of phase two — the decision's
// posts, the coordinator's own install, the read-only releases — so it must
// not block: whatever it cannot hand over at once it hands over after
// RunClass returns.
type Answerer interface {
	Answer()
}

// answerKey is the context key WithAnswer stores an Answerer under.
type answerKey struct{}

// WithAnswer returns parent carrying a, for RunClass to answer at its
// transaction's commit point. Only the transaction RunClass runs is answered:
// the context its body gets no longer carries a, so a transaction the body
// starts is not. A caller that runs one transaction after another can make
// the context once and reuse it.
func WithAnswer(parent context.Context, a Answerer) context.Context {
	return context.WithValue(parent, answerKey{}, a)
}

// Config assembles a TM.
type Config struct {
	Site     proto.SiteID
	Net      transport.Transport
	Local    *dm.Manager
	Catalog  *replication.Catalog
	Profile  replication.Profile
	Recorder *history.Recorder
	Seq      *Sequencer
	Clock    clock.Clock
	// Obs receives protocol events and metrics; nil is a no-op sink.
	Obs *obs.Hub
	// MaxAttempts bounds Run's retry loop. Defaults to 12.
	MaxAttempts int
	// RetryBackoff is the base backoff between attempts (exponential with
	// jitter, capped at 64x). Defaults to 2ms.
	RetryBackoff time.Duration
	// Seed seeds backoff jitter; 0 derives one from the site ID.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 12
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = int64(c.Site) + 1
	}
	return c
}

// Manager is one site's transaction manager. Create with New.
type Manager struct {
	cfg Config
	cb  Callbacks

	sites []proto.SiteID // the catalog's, read by every session-vector read

	// scratch pools what attempts grow as they run (see scratch).
	scratch sync.Pool

	mu     sync.Mutex
	rng    *rand.Rand
	active map[proto.TxnID]bool
}

// New returns a transaction manager.
func New(cfg Config, cb Callbacks) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:    cfg,
		cb:     cb,
		sites:  cfg.Catalog.Sites(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		active: make(map[proto.TxnID]bool),
	}
	m.scratch.New = func() any { return new(scratch) }
	return m
}

// Site returns the TM's site.
func (m *Manager) Site() proto.SiteID { return m.cfg.Site }

// Active reports whether this TM is still coordinating txn. It backs the
// presumed-abort decision service: "still active" answers keep participants
// waiting instead of presuming abort.
func (m *Manager) Active(txn proto.TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[txn]
}

// CrashReset drops the coordinator's volatile state when its site crashes:
// a restarted coordinator never resumes an undecided transaction, which is
// exactly what lets participants presume abort.
func (m *Manager) CrashReset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active = make(map[proto.TxnID]bool)
}

// Run executes body as a user transaction, retrying on transient protocol
// outcomes (stale session views, deadlock victims, crashed participants).
// The body may run several times; it must be idempotent apart from its
// transaction operations.
func (m *Manager) Run(ctx context.Context, body func(context.Context, *Tx) error) error {
	return m.RunClass(ctx, proto.ClassUser, body)
}

// RunClass runs body as a transaction of the given class. Copier and
// control transactions use their dedicated classes; the session and
// recovery packages build on this entry point.
//
// An Answerer on ctx (WithAnswer) is told of the commit at its commit point,
// before phase two, which still finishes before RunClass returns. It is told
// at most once, and only when RunClass is about to return nil.
func (m *Manager) RunClass(ctx context.Context, class proto.TxnClass, body func(context.Context, *Tx) error) error {
	answer, _ := ctx.Value(answerKey{}).(Answerer)
	var lastErr error
	attempts := 0 // begun so far; a give-up reports them
	for attempts < m.cfg.MaxAttempts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempts > 0 {
			m.backoff(ctx, attempts)
		}

		attempts++
		tx, err := m.begin(ctx, class, attempts)
		if err != nil {
			lastErr = err
			if !proto.Retryable(err) {
				break
			}
			continue
		}
		tx.answer = answer
		actx := tx.bind(ctx)
		err = body(actx, tx)
		if err == nil {
			err = tx.Commit(actx)
			if err == nil {
				m.cfg.Obs.TxnCommit(m.cfg.Site, tx.meta.ID, class, attempts, tx.begun)
				return nil
			}
		} else {
			tx.Abort(actx)
		}
		m.cfg.Obs.TxnAbort(m.cfg.Site, tx.meta.ID, class, attempts, tx.begun, err)
		lastErr = err
		if errors.Is(err, proto.ErrAbortRequested) || !proto.Retryable(err) {
			break
		}
	}
	m.cfg.Obs.TxnGiveUp(m.cfg.Site, class, attempts)
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return fmt.Errorf("transaction gave up: %w", lastErr)
}

func (m *Manager) backoff(ctx context.Context, attempt int) {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	base := m.cfg.RetryBackoff * (1 << shift)
	m.mu.Lock()
	jitter := time.Duration(m.rng.Int63n(int64(base) + 1))
	m.mu.Unlock()
	select {
	case <-m.cfg.Clock.After(base/2 + jitter):
	case <-ctx.Done():
	}
}

// begin starts one attempt: allocates the ID, registers it, and (for user
// and copier transactions under a session-vector profile) performs the
// implicit read of the local nominal session vector.
func (m *Manager) begin(ctx context.Context, class proto.TxnClass, attempt int) (*Tx, error) {
	id := m.cfg.Seq.NextTxn()
	meta := proto.TxnMeta{ID: id, Class: class, Origin: m.cfg.Site}
	if m.cfg.Recorder != nil {
		m.cfg.Recorder.RegisterTxn(id, class)
	}
	m.mu.Lock()
	m.active[id] = true
	m.mu.Unlock()
	begun := m.cfg.Obs.TxnBegin(m.cfg.Site, id, class, attempt)

	parent, _ := obs.SpanFrom(ctx)
	tx := &Tx{
		m:     m,
		meta:  meta,
		begun: begun,
		scr:   m.scratch.Get().(*scratch),
		span: obs.SpanContext{
			Root:   id,
			Span:   obs.NewSpanID(m.cfg.Site),
			Parent: parent.Span,
			Origin: m.cfg.Site,
		},
	}
	// The four site sets share one array, a catalog's worth of room each:
	// the attempt's own while the catalog is small.
	n := len(m.sites)
	sets := tx.inline.sites[:]
	if n > inlineSites {
		sets = make([]proto.SiteID, 4*n)
	}
	tx.attempted, tx.parts, tx.wparts, tx.spare = sets[0:0:n], sets[n:n:2*n], sets[2*n:2*n:3*n], sets[3*n:3*n:4*n]
	tx.reads = tx.inline.reads[:0]

	needsView := m.cfg.Profile.UsesSessionVector &&
		(class == proto.ClassUser || class == proto.ClassCopier)
	if needsView {
		if err := tx.readSessionVector(ctx); err != nil {
			tx.Abort(ctx)
			m.cfg.Obs.TxnAbort(m.cfg.Site, id, class, attempt, begun, err)
			return nil, err
		}
	}
	return tx, nil
}

func (m *Manager) noteSiteDown(err error, site proto.SiteID, observed proto.Session) {
	if !errors.Is(err, proto.ErrSiteDown) {
		return
	}
	// A dead process observes nothing: when this site itself has crashed,
	// its sends fail with ErrSiteDown too, and reporting the *target* down
	// would poison the nominal session vector after recovery. The paper's
	// precondition — a type-2 initiator must be sure the claimed site is
	// actually down — forbids exactly this.
	if !m.cfg.Local.Alive() {
		return
	}
	m.cfg.Obs.SiteDownObserved(m.cfg.Site, site, observed)
	if m.cb.OnSiteDown != nil {
		m.cb.OnSiteDown(site, observed)
	}
}

func (m *Manager) release(id proto.TxnID) {
	m.mu.Lock()
	delete(m.active, id)
	m.mu.Unlock()
}

// Tx is one transaction attempt.
type Tx struct {
	m    *Manager
	meta proto.TxnMeta
	view replication.View
	// span is the attempt's trace context: rooted at this transaction's ID,
	// parented on whatever span the caller's context carried (a recovery or
	// claim span for nested control transactions).
	span obs.SpanContext
	// begun is the hub's stamp on the attempt's txn.begin, handed back with
	// its outcome so the hub can observe the attempt's latency.
	begun time.Time

	reads     []readEntry // repeatable-read cache, in read order
	attempted siteSet     // sites any op was sent to
	parts     siteSet     // sites with a successful op
	wparts    siteSet     // sites with a successful write op (2PC participants)
	spare     siteSet     // one operation's sites: a read's candidates, the flush's targets, phase two's read-only participants
	rawWrote  bool        // a raw write or local refresh is buffered at some site
	done      bool
	answer    Answerer // told of the commit at the commit point, if not nil

	// scr is the attempt's pooled scratch, nil once the attempt has ended.
	scr *scratch
	// ctx is what the attempt's body and operations run under (bind), dctx
	// what its decision and aborts are delivered under (detach).
	ctx, dctx spanCtx

	// inline backs the site sets and the view of an attempt over a catalog
	// of up to inlineSites sites, and its first inlineReads reads, so that
	// they cost no allocation of their own.
	inline struct {
		sites    [4 * inlineSites]proto.SiteID
		sessions [inlineSites]replication.SiteSession
		reads    [inlineReads]readEntry
	}
}

// inlineSites bounds the catalogs whose per-site bookkeeping fits in the Tx.
const inlineSites = 4

// inlineReads is how many distinct items an attempt reads before its read
// cache leaves the Tx: the 4 ops of the ledger's and the load generator's
// transactions.
const inlineReads = 4

// scratch is what an attempt grows as it runs: its logical write set, its
// flush's plan and batches, its fan-outs' results, and its request to its
// own site. The manager pools them, so a steady stream of attempts reuses a
// few. Nothing in one is visible outside the attempt holding it: the View
// and the Tx live in the Tx, and end clears a scratch before the pool gets
// it back.
type scratch struct {
	written []writeEntry       // the logical write set, flushed by Commit, sorted by item
	plans   []writePlan        // the flush's plan of each written item
	ops     []proto.BatchOp    // every target's batch, back to back
	batches [][]proto.BatchOp  // batches[j] is what the flush's j-th target receives
	results []transport.Result // the last fan-out's
	local   localCall          // the last fan-out's request to the own site
	sites   []proto.SiteID     // backs the plans' lists when a replica is down
}

// writeEntry is one buffered logical write.
type writeEntry struct {
	item  proto.Item
	value proto.Value
}

// readEntry is one cached read.
type readEntry struct {
	item  proto.Item
	value proto.Value
}

// spanCtx is a context of the attempt's own: its parent with span as the
// span context, as obs.WithSpan(parent, span) is, and detached also as
// context.WithoutCancel(parent) is — never done and without a deadline. It
// lives in the Tx, so no attempt allocates one, and obs.SpanFrom reads its
// span without boxing it.
type spanCtx struct {
	parent   context.Context
	span     obs.SpanContext
	hasSpan  bool
	detached bool
}

// bind returns ctx carrying the attempt's span: every RPC the attempt makes
// — reads, writes, 2PC — has the attempt as its causal parent under the
// transaction's root ID. Only a recording transport (tcpnet with a hub) acts
// on it.
func (t *Tx) bind(ctx context.Context) context.Context {
	t.ctx = spanCtx{parent: ctx, span: t.span, hasSpan: true}
	return &t.ctx
}

// detach returns ctx without its cancellation and deadline, for deliveries
// that must not depend on the caller: a durable decision, the aborts that
// release remote locks.
func (t *Tx) detach(ctx context.Context) context.Context {
	span, ok := obs.SpanFrom(ctx)
	t.dctx = spanCtx{parent: ctx, span: span, hasSpan: ok, detached: true}
	return &t.dctx
}

func (c *spanCtx) Deadline() (time.Time, bool) {
	if c.detached {
		return time.Time{}, false
	}
	return c.parent.Deadline()
}

func (c *spanCtx) Done() <-chan struct{} {
	if c.detached {
		return nil
	}
	return c.parent.Done()
}

func (c *spanCtx) Err() error {
	if c.detached {
		return nil
	}
	return c.parent.Err()
}

func (c *spanCtx) Value(key any) any {
	if c.hasSpan && obs.IsSpanKey(key) {
		return c.span
	}
	if _, ok := key.(answerKey); ok {
		return nil // the attempt's Tx holds the answer; no nested transaction gets it
	}
	return c.parent.Value(key)
}

// Span implements obs.SpanCarrier.
func (c *spanCtx) Span() (obs.SpanContext, bool) { return c.span, c.hasSpan }

// end finishes the attempt: it is done, its TM no longer coordinates it, and
// its scratch goes back to the pool, cleared, so that nothing it referenced
// stays reachable from there.
func (t *Tx) end() {
	t.done = true
	t.m.release(t.meta.ID)
	s := t.scr
	if s == nil {
		return
	}
	t.scr = nil
	clear(s.written)
	clear(s.plans)
	clear(s.ops)
	clear(s.batches)
	clear(s.results)
	s.written, s.plans, s.ops, s.batches, s.results, s.sites = s.written[:0], s.plans[:0], s.ops[:0], s.batches[:0], s.results[:0], s.sites[:0]
	s.local = localCall{}
	t.m.scratch.Put(s)
}

// cachedRead returns item's cached read.
func (t *Tx) cachedRead(item proto.Item) (proto.Value, bool) {
	for _, r := range t.reads {
		if r.item == item {
			return r.value, true
		}
	}
	return 0, false
}

// cacheRead remembers item's read.
func (t *Tx) cacheRead(item proto.Item, v proto.Value) {
	t.reads = append(t.reads, readEntry{item, v})
}

// written finds item in the logical write set: its index, or where it goes.
func (t *Tx) written(item proto.Item) (int, bool) {
	return slices.BinarySearchFunc(t.scr.written, item, func(w writeEntry, item proto.Item) int {
		return cmp.Compare(w.item, item)
	})
}

// siteSet is a handful of sites as an ascending slice: fan-out order.
type siteSet []proto.SiteID

func (s *siteSet) add(site proto.SiteID) {
	if i, found := slices.BinarySearch(*s, site); !found {
		*s = slices.Insert(*s, i, site)
	}
}

func (s siteSet) has(site proto.SiteID) bool {
	_, found := slices.BinarySearch(s, site)
	return found
}

// finished is what every operation on a committed or aborted Tx returns.
func (t *Tx) finished() error {
	return fmt.Errorf("transaction %v: %w", t.meta.ID, proto.ErrTxnFinished)
}

// ID returns the transaction identifier.
func (t *Tx) ID() proto.TxnID { return t.meta.ID }

// Meta returns the transaction metadata.
func (t *Tx) Meta() proto.TxnMeta { return t.meta }

// Span returns the attempt's trace context.
func (t *Tx) Span() obs.SpanContext { return t.span }

// View returns the nominal session vector read at begin (zero View for
// profiles without session vectors).
func (t *Tx) View() replication.View { return t.view }

// readSessionVector performs the implicit first read of §3.2 against the
// local copies of NS[1..n], under ordinary shared locks.
func (t *Tx) readSessionVector(ctx context.Context) error {
	expect := t.m.cfg.Local.Session()
	if expect == proto.NoSession {
		return fmt.Errorf("%v begin %v: %w", t.m.cfg.Site, t.meta.ID, proto.ErrNotOperational)
	}
	sessions := t.inline.sessions[:0]
	if len(t.m.sites) > inlineSites {
		sessions = make([]replication.SiteSession, 0, len(t.m.sites))
	}
	for _, site := range t.m.sites {
		rr, err := t.read(ctx, t.m.cfg.Site, proto.ReadReq{
			Txn:    t.meta,
			Item:   proto.NSItem(site),
			Mode:   proto.CheckSession,
			Expect: expect,
		})
		if err != nil {
			return err
		}
		sessions = append(sessions, replication.SiteSession{Site: site, Session: proto.Session(rr.Value)})
	}
	t.view = replication.View{Sessions: sessions}
	return nil
}

// read performs one physical read and keeps the attempted/participant
// bookkeeping. A read of the own site's copy is a direct call on its data
// manager; read-only sites are released without voting (the standard
// read-only participant optimization).
func (t *Tx) read(ctx context.Context, site proto.SiteID, req proto.ReadReq) (proto.ReadResp, error) {
	t.attempted.add(site)
	var (
		rr  proto.ReadResp
		err error
	)
	if site == t.m.cfg.Site {
		rr, err = t.m.cfg.Local.Read(ctx, req)
	} else {
		var resp proto.Message
		if resp, err = t.m.cfg.Net.Call(ctx, t.m.cfg.Site, site, req); err == nil {
			var ok bool
			if rr, ok = resp.(proto.ReadResp); !ok {
				t.parts.add(site)
				return rr, fmt.Errorf("unexpected response %T to read", resp)
			}
		}
	}
	return rr, t.noteRead(site, rr, err)
}

// noteRead is the bookkeeping on one read's reply.
func (t *Tx) noteRead(site proto.SiteID, rr proto.ReadResp, err error) error {
	if err == nil {
		// Lamport step: a version read from a peer must sort below anything
		// this coordinator commits afterwards.
		t.m.cfg.Seq.ObserveCommitSeq(rr.Version.Counter)
	}
	return t.noted(site, false, err)
}

// noted is the bookkeeping on one physical reply: a failure is reported to
// the failure detector, a success makes the site a participant, and a
// two-phase-commit participant when the request wrote.
func (t *Tx) noted(site proto.SiteID, wrote bool, err error) error {
	if err != nil {
		t.m.noteSiteDown(err, site, t.view.Session(site))
		return err
	}
	t.parts.add(site)
	if wrote {
		t.wparts.add(site)
	}
	return nil
}

// localOp names a localCall's request.
type localOp uint8

const (
	localRead localOp = iota + 1
	localWrite
	localBatch
	localPrepare
	localCommit
	localAbort
)

// localCall is an attempt's request to its own site inside a fan-out. It is
// served by a direct typed call on the site's data manager — what the site's
// wire dispatcher does with the message, without boxing the request or the
// reply — and the transport's Local decides when: at once on the simulator,
// after the peers' frames are out on tcpnet. Neither transport's local bus
// moves a trace event, so this moves none either. Its Wait returns no
// message: the reply stays here, typed.
type localCall struct {
	dm  *dm.Manager
	ctx context.Context
	op  localOp

	read    proto.ReadReq
	write   proto.WriteReq
	batch   proto.BatchReq
	prepare proto.PrepareReq
	commit  proto.CommitReq
	abort   proto.AbortReq

	readResp proto.ReadResp
	vote     bool
	maxSeq   uint64
}

func (c *localCall) Wait() (proto.Message, error) {
	var err error
	switch c.op {
	case localRead:
		c.readResp, err = c.dm.Read(c.ctx, c.read)
	case localWrite:
		err = c.dm.Write(c.ctx, c.write)
	case localBatch:
		var br proto.BatchResp
		br, err = c.dm.Batch(c.ctx, c.batch)
		c.vote, c.maxSeq = br.Vote, br.MaxSeq
	case localPrepare:
		var pr proto.PrepareResp
		pr, err = c.dm.Prepare(c.prepare)
		c.vote, c.maxSeq = pr.Vote, pr.MaxSeq
	case localCommit:
		err = c.dm.Commit(c.commit)
	case localAbort:
		err = c.dm.Abort(c.abort)
	}
	return nil, err
}

// local starts a fan-out's request to the own site: the attempt's
// localCall, its request put in place by set.
func (t *Tx) local(ctx context.Context, set func(*localCall)) transport.Pending {
	c := &t.scr.local
	*c = localCall{dm: t.m.cfg.Local, ctx: ctx}
	set(c)
	return t.m.cfg.Net.Local(c)
}

// Read performs a logical READ under the profile's read policy.
func (t *Tx) Read(ctx context.Context, item proto.Item) (proto.Value, error) {
	if t.done {
		return 0, t.finished()
	}
	if i, ok := t.written(item); ok {
		return t.scr.written[i].value, nil // read-your-writes
	}
	if v, ok := t.cachedRead(item); ok {
		return v, nil // repeatable read
	}

	var (
		value proto.Value
		err   error
	)
	switch t.m.cfg.Profile.Read {
	case replication.ReadOneUp:
		value, err = t.readOne(ctx, item, true)
	case replication.ReadOneAny:
		value, err = t.readOne(ctx, item, false)
	case replication.ReadQuorum:
		value, err = t.readQuorum(ctx, item)
	default:
		err = fmt.Errorf("read policy %d: %w", t.m.cfg.Profile.Read, proto.ErrUnknownPolicy)
	}
	if err != nil {
		return 0, err
	}
	t.cacheRead(item, value)
	return value, nil
}

// readOne reads a single copy, local first. With useView set, only
// nominally-up replicas are candidates and requests carry the perceived
// session number (ROWAA); otherwise every replica is a candidate with no
// session check (ROWA, naive).
func (t *Tx) readOne(ctx context.Context, item proto.Item, useView bool) (proto.Value, error) {
	replicas, err := t.m.cfg.Catalog.Replicas(item)
	if err != nil {
		return 0, err
	}
	candidates := t.orderCandidates(replicas, useView)
	if len(candidates) == 0 {
		return 0, fmt.Errorf("read %q: %w", item, proto.ErrUnavailable)
	}

	var lastErr error
	for _, site := range candidates {
		req := proto.ReadReq{
			Txn:  t.meta,
			Item: item,
			Mode: t.m.cfg.Profile.CheckMode,
		}
		if useView {
			req.Expect = t.view.Session(site)
		}
		if t.meta.Class == proto.ClassCopier {
			req.Copier = true
		}
		rr, err := t.read(ctx, site, req)
		if err == nil {
			return rr.Value, nil
		}
		lastErr = err
		// Unreadable or crashed copies fall back to the next candidate;
		// session mismatches and lock failures abort the attempt (the
		// view is stale or we are a deadlock victim).
		if errors.Is(err, proto.ErrUnreadable) || errors.Is(err, proto.ErrSiteDown) || errors.Is(err, proto.ErrDropped) {
			continue
		}
		return 0, err
	}
	return 0, fmt.Errorf("read %q: all candidates failed: %w", item, lastErr)
}

// orderCandidates filters (optionally by the view) and orders replica
// sites, the catalog's ascending list, into the attempt's spare set: local
// copy first, then ascending site ID.
func (t *Tx) orderCandidates(replicas []proto.SiteID, useView bool) []proto.SiteID {
	out := t.spare[:0]
	for _, site := range replicas {
		if !useView || t.view.Up(site) {
			out = append(out, site)
		}
	}
	if i, found := slices.BinarySearch(out, t.m.cfg.Site); found {
		copy(out[1:i+1], out[:i])
		out[0] = t.m.cfg.Site
	}
	return out
}

// readQuorum reads a majority of copies and returns the newest version,
// recording only the winning physical read.
func (t *Tx) readQuorum(ctx context.Context, item proto.Item) (proto.Value, error) {
	replicas, err := t.m.cfg.Catalog.Replicas(item)
	if err != nil {
		return 0, err
	}
	quorum, err := t.m.cfg.Catalog.Quorum(item)
	if err != nil {
		return 0, err
	}

	req := proto.ReadReq{
		Txn: t.meta, Item: item, Mode: proto.CheckNone,
		ReadOld: true, NoRecord: true,
	}
	var (
		got    int
		best   proto.ReadResp
		bestAt proto.SiteID
	)
	t.scr.results = transport.Fanout(t.scr.results, replicas, func(site proto.SiteID) transport.Pending {
		t.attempted.add(site)
		if site == t.m.cfg.Site {
			return t.local(ctx, func(c *localCall) { c.op, c.read = localRead, req })
		}
		return t.m.cfg.Net.Send(ctx, t.m.cfg.Site, site, req)
	}, func(r *transport.Result) bool {
		var rr proto.ReadResp
		if r.Err == nil {
			if r.Site == t.m.cfg.Site {
				rr = t.scr.local.readResp
			} else if resp, ok := r.Resp.(proto.ReadResp); ok {
				rr = resp
			} else {
				t.parts.add(r.Site)
				return false
			}
		}
		if r.Err = t.noteRead(r.Site, rr, r.Err); r.Err == nil {
			got++
			if got == 1 || best.Version.Less(rr.Version) {
				best = rr
				bestAt = r.Site
			}
		}
		return false
	})
	if got < quorum {
		return 0, fmt.Errorf("read %q: %d of %d needed: %w", item, got, quorum, proto.ErrNoQuorum)
	}
	if t.m.cfg.Recorder != nil {
		t.m.cfg.Recorder.Read(t.meta.ID, item, bestAt, best.Version.Writer)
	}
	return best.Value, nil
}

// writePlan is the policy interpretation of one logical WRITE: where the
// copies go, which nominally-down replicas are missed, and how many physical
// writes must succeed.
type writePlan struct {
	targets      []proto.SiteID
	missed       []proto.SiteID
	minSuccess   int
	tolerateDown bool
}

// writeTargets interprets the profile's write policy for item against the
// transaction's view. It performs no communication. The targets are the
// catalog's shared list unless some replica is nominally down; then the
// targets and the missed replicas are lists appended to buf, which the plan
// owns from then on.
func (t *Tx) writeTargets(item proto.Item, buf *[]proto.SiteID) (writePlan, error) {
	replicas, err := t.m.cfg.Catalog.Replicas(item)
	if err != nil {
		return writePlan{}, err
	}
	p := writePlan{targets: replicas}
	switch t.m.cfg.Profile.Write {
	case replication.WriteAllUp:
		if slices.ContainsFunc(replicas, func(site proto.SiteID) bool { return !t.view.Up(site) }) {
			start := len(*buf)
			for _, site := range replicas {
				if t.view.Up(site) {
					*buf = append(*buf, site)
				}
			}
			mid := len(*buf)
			for _, site := range replicas {
				if !t.view.Up(site) {
					*buf = append(*buf, site)
				}
			}
			end := len(*buf)
			p.targets, p.missed = (*buf)[start:mid:mid], (*buf)[mid:end:end]
		}
		if len(p.targets) == 0 {
			return writePlan{}, fmt.Errorf("write %q: %w", item, proto.ErrNoReplica)
		}
		p.minSuccess = len(p.targets)
	case replication.WriteAll:
		p.minSuccess = len(p.targets)
	case replication.WriteAvailable:
		p.tolerateDown = true
		p.minSuccess = 1
	case replication.WriteQuorum:
		p.tolerateDown = true
		q, qerr := t.m.cfg.Catalog.Quorum(item)
		if qerr != nil {
			return writePlan{}, qerr
		}
		p.minSuccess = q
	default:
		return writePlan{}, fmt.Errorf("write policy %d: %w", t.m.cfg.Profile.Write, proto.ErrUnknownPolicy)
	}
	return p, nil
}

// Write performs a logical WRITE under the profile's write policy. The
// write is buffered locally — Read sees it immediately (read-your-writes),
// but no message leaves the site until Commit flushes the write set as one
// batch per participant. Placement errors (unknown item, no nominally-up
// replica) surface here; errors that need a peer (session mismatch, lock
// conflict, site down) surface at Commit. An attempt writes either through
// Write or through the raw operations of raw.go, never both.
func (t *Tx) Write(ctx context.Context, item proto.Item, value proto.Value) error {
	if t.done {
		return t.finished()
	}
	// The view is fixed at begin, so the flush-time recomputation yields the
	// same plan.
	buf := t.scr.sites
	if _, err := t.writeTargets(item, &buf); err != nil {
		return err
	}
	i, found := t.written(item)
	if found {
		t.scr.written[i].value = value
	} else {
		t.scr.written = slices.Insert(t.scr.written, i, writeEntry{item, value})
	}
	return nil
}

// Abort aborts the attempt, releasing state at every site it touched.
func (t *Tx) Abort(ctx context.Context) {
	if t.done {
		return
	}
	t.done = true
	if t.m.cfg.Local.Alive() {
		// Aborts release remote locks; deliver them even if the caller's
		// context is already canceled. A dead process sends nothing;
		// janitors clean up the remote state.
		t.broadcast(t.detach(ctx), t.attempted, proto.AbortReq{Txn: t.meta})
	}
	// Presumed abort: the coordinator logs nothing; a decision query that
	// finds neither an active transaction nor a log record means abort.
	t.end()
}

// Commit runs two-phase commit over the participants and reports the
// outcome. Read-only transactions skip 2PC and just release their locks.
// For a buffered write set phase one IS the flush: each participant receives
// its slice of the write set as one BatchReq whose response carries the
// prepare vote, so a W-write transaction over R replicas costs R batch
// messages plus R commit messages. Attempts that wrote through the raw
// operations instead (control transactions, copiers) have their writes at
// the participants already and run a separate prepare round.
//
// Commit returns once the decision is logged and on its way: the remote
// participants are posted the decision, not asked to acknowledge it. Their
// prepare records were forced before they voted and they hold their
// exclusive locks until the decision lands, so no transaction anywhere can
// read the gap; a decision lost with a connection or a process is what the
// janitor and recovery's in-doubt step resolve, through one decision lookup.
// The attempt's Answerer is told at the commit point, before phase two: once
// the decision is logged, or once a read-only attempt has read, nothing
// Commit does can fail it.
func (t *Tx) Commit(ctx context.Context) error {
	if t.done {
		return t.finished()
	}
	defer t.end()

	if len(t.scr.written) == 0 && !t.rawWrote {
		seq := t.m.cfg.Seq.NextCommitSeq()
		if t.m.cfg.Recorder != nil {
			t.m.cfg.Recorder.Commit(t.meta.ID, seq)
		}
		t.answered()
		t.broadcast(ctx, t.attempted, proto.AbortReq{Txn: t.meta, ReadOnlyEnd: true})
		return nil
	}

	var err error
	if len(t.scr.written) > 0 {
		err = t.flushBatch(ctx)
	} else {
		err = t.prepareParticipants(ctx)
	}
	if err != nil {
		// Abort after the failed prepare phase.
		t.broadcast(t.detach(ctx), t.attempted, proto.AbortReq{Txn: t.meta})
		return err
	}

	if t.m.cb.OnPrepared != nil {
		t.m.cb.OnPrepared(t.meta.ID)
	}

	// A coordinator whose site died cannot log a decision or send another
	// message; the transaction's fate rests with cooperative termination.
	if !t.m.cfg.Local.Alive() {
		return fmt.Errorf("coordinator %v died before deciding %v: %w",
			t.m.cfg.Site, t.meta.ID, proto.ErrSiteDown)
	}

	// Decision: log locally before telling anyone (presumed abort logs
	// commits only).
	commitSeq := t.m.cfg.Seq.NextCommitSeq()
	t.m.cfg.Local.Log().Append(wal.Record{
		Type: wal.RecordCommit, Role: wal.RoleCoordinator,
		Txn: t.meta.ID, CommitSeq: commitSeq,
	})
	if t.m.cfg.Recorder != nil {
		t.m.cfg.Recorder.Commit(t.meta.ID, commitSeq)
	}
	if t.m.cb.OnDecided != nil {
		t.m.cb.OnDecided(t.meta.ID)
	}
	t.answered()

	// Phase two: the decision is durable, so its delivery must not depend
	// on the caller's context — a client that walks away mid-commit must
	// not strand participants on the janitor's timetable. The remote
	// participants are posted the decision; the local one commits on this
	// goroutine once the posts are out (in target order on the simulator,
	// where a post is complete when it returns). A post that fails, or is
	// lost after it was written, is tolerated: the participant learns the
	// outcome from the decision service or its own recovery.
	deliverCtx := t.detach(ctx)
	decision := proto.CommitReq{Txn: t.meta, CommitSeq: commitSeq}
	t.scr.results = transport.Fanout(t.scr.results, t.wparts, func(site proto.SiteID) transport.Pending {
		if site == t.m.cfg.Site {
			return t.local(deliverCtx, func(c *localCall) { c.op, c.commit = localCommit, decision })
		}
		err := t.m.cfg.Net.Post(deliverCtx, t.m.cfg.Site, site, decision)
		if err != nil {
			t.m.noteSiteDown(err, site, t.view.Session(site))
		}
		return transport.Done(nil, err)
	}, nil)
	// Release the read-only participants' locks (best effort; a crashed
	// site has no locks to release).
	readOnly := t.spare[:0]
	for _, site := range t.parts {
		if !t.wparts.has(site) {
			readOnly = append(readOnly, site)
		}
	}
	if len(readOnly) > 0 {
		t.broadcast(deliverCtx, readOnly, proto.AbortReq{Txn: t.meta, ReadOnlyEnd: true})
	}
	return nil
}

// answered tells the attempt's Answerer, if it has one, that the attempt
// committed.
func (t *Tx) answered() {
	if a := t.answer; a != nil {
		t.answer = nil
		a.Answer()
	}
}

// prepareParticipants is phase one for raw writes: write participants must
// vote yes. Read-only participants skip voting entirely and are released
// after the decision. The first failure in target order decides the outcome,
// so the reported error does not depend on which vote came back first.
func (t *Tx) prepareParticipants(ctx context.Context) error {
	req := proto.PrepareReq{Txn: t.meta}
	t.scr.results = transport.Fanout(t.scr.results, t.wparts, func(site proto.SiteID) transport.Pending {
		if site == t.m.cfg.Site {
			return t.local(ctx, func(c *localCall) { c.op, c.prepare = localPrepare, req })
		}
		return t.m.cfg.Net.Send(ctx, t.m.cfg.Site, site, req)
	}, func(r *transport.Result) bool {
		r.Err = t.vote(r, func(resp proto.Message) (bool, uint64, bool) {
			pr, ok := resp.(proto.PrepareResp)
			return pr.Vote, pr.MaxSeq, ok
		})
		// Where votes are in at send time, a no-vote stops the fan-out
		// before further participants are prepared.
		return r.Err != nil
	})
	for _, r := range t.scr.results {
		if r.Site == 0 {
			continue // fan-out halted before reaching this participant
		}
		if r.Err != nil {
			t.m.noteSiteDown(r.Err, r.Site, t.view.Session(r.Site))
			return fmt.Errorf("prepare at %v: %w", r.Site, r.Err)
		}
	}
	return nil
}

// vote reads a participant's phase-one reply — from the own site's
// localCall, or through decode from a peer's message — and turns a "no", or a
// reply that is not a vote, into an error.
func (t *Tx) vote(r *transport.Result, decode func(proto.Message) (vote bool, maxSeq uint64, ok bool)) error {
	if r.Err != nil {
		return r.Err
	}
	vote, maxSeq, ok := t.scr.local.vote, t.scr.local.maxSeq, true
	if r.Site != t.m.cfg.Site {
		vote, maxSeq, ok = decode(r.Resp)
	}
	if !ok || !vote {
		return fmt.Errorf("voted no: %w", proto.ErrTxnAborted)
	}
	// Lamport step: the commit sequence number picked after phase one must
	// exceed everything any participant has already installed.
	t.m.cfg.Seq.ObserveCommitSeq(maxSeq)
	return nil
}

// flushBatch is phase one for the logical write set: it interprets the
// buffered writes under the profile's write policy, groups the resulting
// physical writes by target site, and sends each site one BatchReq with the
// prepare flag set. The batch response piggybacks the site's vote and its
// high commit sequence number, so no separate prepare round follows. The
// write set is in item order, so every coordinator acquires a participant's
// X locks in the same order and two write sets cannot deadlock inside a
// site.
func (t *Tx) flushBatch(ctx context.Context) error {
	s := t.scr
	sites := t.spare[:0]
	tolerateDown := false
	nops := 0
	for _, w := range s.written {
		plan, err := t.writeTargets(w.item, &s.sites)
		if err != nil {
			return err
		}
		s.plans = append(s.plans, plan)
		tolerateDown = plan.tolerateDown
		for _, site := range plan.targets {
			sites.add(site)
		}
		nops += len(plan.targets)
	}
	// batches[j] is what sites[j] receives: a slice of ops, which has room
	// for every op, so none of the appends below moves it.
	s.ops = slices.Grow(s.ops, nops)
	for _, site := range sites {
		from := len(s.ops)
		for i, w := range s.written {
			if slices.Contains(s.plans[i].targets, site) {
				s.ops = append(s.ops, proto.BatchOp{Item: w.item, Value: w.value, MissedBy: s.plans[i].missed})
			}
		}
		s.batches = append(s.batches, s.ops[from:len(s.ops):len(s.ops)])
	}

	tolerated := func(err error) bool {
		return tolerateDown && (errors.Is(err, proto.ErrSiteDown) || errors.Is(err, proto.ErrDropped))
	}
	s.results = transport.Fanout(s.results, sites, func(site proto.SiteID) transport.Pending {
		j, _ := slices.BinarySearch(sites, site)
		req := proto.BatchReq{
			Txn:     t.meta,
			Mode:    t.m.cfg.Profile.CheckMode,
			Ops:     s.batches[j],
			Prepare: true,
		}
		if t.m.cfg.Profile.CheckMode == proto.CheckSession {
			req.Expect = t.view.Session(site)
		}
		t.attempted.add(site)
		if site == t.m.cfg.Site {
			return t.local(ctx, func(c *localCall) { c.op, c.batch = localBatch, req })
		}
		return t.m.cfg.Net.Send(ctx, t.m.cfg.Site, site, req)
	}, func(r *transport.Result) bool {
		if r.Err = t.noted(r.Site, true, r.Err); r.Err == nil {
			r.Err = t.vote(r, func(resp proto.Message) (bool, uint64, bool) {
				br, ok := resp.(proto.BatchResp)
				return br.Vote, br.MaxSeq, ok
			})
		}
		return r.Err != nil && !tolerated(r.Err)
	})

	for j, r := range s.results {
		switch {
		case r.Site == 0 || tolerated(r.Err):
			s.batches[j] = nil // the fan-out halted before this site, or it is down: nothing landed here
		case r.Err != nil:
			return fmt.Errorf("batch flush at %v: %w", r.Site, r.Err)
		}
	}
	for i, w := range s.written {
		plan := s.plans[i]
		succeeded := 0
		for _, site := range plan.targets {
			if j, _ := slices.BinarySearch(sites, site); s.batches[j] != nil {
				succeeded++
			}
		}
		if succeeded >= plan.minSuccess {
			continue
		}
		if t.m.cfg.Profile.Write == replication.WriteQuorum {
			return fmt.Errorf("write %q: %d of %d needed: %w",
				w.item, succeeded, plan.minSuccess, proto.ErrNoQuorum)
		}
		return fmt.Errorf("write %q: %d of %d copies reachable: %w",
			w.item, succeeded, plan.minSuccess, proto.ErrUnavailable)
	}
	return nil
}

// broadcast sends msg to every listed site and waits for them all, reporting
// the ones found dead to the failure detector.
func (t *Tx) broadcast(ctx context.Context, sites []proto.SiteID, msg proto.AbortReq) {
	t.scr.results = transport.Fanout(t.scr.results, sites, func(site proto.SiteID) transport.Pending {
		if site == t.m.cfg.Site {
			return t.local(ctx, func(c *localCall) { c.op, c.abort = localAbort, msg })
		}
		return t.m.cfg.Net.Send(ctx, t.m.cfg.Site, site, msg)
	}, func(r *transport.Result) bool {
		if r.Err != nil {
			t.m.noteSiteDown(r.Err, r.Site, t.view.Session(r.Site))
		}
		return false
	})
}
