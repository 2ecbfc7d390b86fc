// Package recovery implements the site recovery procedure of §3.4 and the
// copier transactions of §3.2:
//
//  1. the site turns its TM and DM on with as[k] = 0 (done by the caller
//     via dm.Restart);
//  2. it resolves in-doubt two-phase-commit state from its stable log and
//     marks out-of-date copies unreadable, using one of the §5
//     identification strategies;
//  3. it runs a type-1 control transaction (via internal/session);
//  4. on commit it loads the new session number into as[k] and is fully
//     operational — data recovery continues concurrently via copiers;
//  5. copier transactions refresh unreadable copies from readable copies at
//     operational sites, either eagerly or on demand.
//
// The package also provides the cooperative-termination janitor the paper
// assumes from the transaction-resolution literature [9, 10]: each site
// periodically resolves in-flight transactions whose coordinator went
// silent, with presumed-abort semantics.
//
// Neither keeps counters: recoveries, in-doubt outcomes, copies and skips
// are counted on the obs hub (recovery/*, copier/*), and the janitor's
// decisions where they land, as dm/forced.commit and dm/forced.abort.
package recovery

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/dm"
	"siterecovery/internal/history"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/session"
	"siterecovery/internal/transport"
	"siterecovery/internal/txn"
)

// Identify selects the §5 out-of-date identification strategy.
type Identify int

// Identification strategies.
const (
	// IdentifyMarkAll marks every local copy (the conservative basic
	// algorithm of §3.4 step 2).
	IdentifyMarkAll Identify = iota + 1
	// IdentifyVersionDiff marks every copy but lets copiers compare
	// version numbers and skip the data transfer for current copies (§5).
	IdentifyVersionDiff
	// IdentifyFailLock marks only the items fail-locked at operational
	// sites during the failure [Bhargava 85].
	IdentifyFailLock
	// IdentifyMissingList is fail-locks plus inheritance of the entries
	// about other still-down sites (the full missing list of §5).
	IdentifyMissingList
)

// String implements fmt.Stringer.
func (i Identify) String() string {
	switch i {
	case IdentifyMarkAll:
		return "markall"
	case IdentifyVersionDiff:
		return "versiondiff"
	case IdentifyFailLock:
		return "faillock"
	case IdentifyMissingList:
		return "missinglist"
	default:
		return fmt.Sprintf("identify(%d)", int(i))
	}
}

// ParseIdentify is the inverse of String: it resolves the name every
// -identify flag and chaos schedule uses.
func ParseIdentify(name string) (Identify, error) {
	switch name {
	case "markall":
		return IdentifyMarkAll, nil
	case "versiondiff":
		return IdentifyVersionDiff, nil
	case "faillock":
		return IdentifyFailLock, nil
	case "missinglist":
		return IdentifyMissingList, nil
	default:
		return 0, fmt.Errorf("unknown identification %q (markall|versiondiff|faillock|missinglist)", name)
	}
}

// CopierMode selects when copiers run (§3.2 leaves it open).
type CopierMode int

// Copier modes.
const (
	// CopierEager refreshes all marked copies as soon as the site is
	// operational.
	CopierEager CopierMode = iota + 1
	// CopierOnDemand refreshes a copy when a read request first hits it.
	CopierOnDemand
)

// Report summarizes one recovery.
type Report struct {
	Session           proto.Session
	Marked            int
	InDoubt           int
	Replayed          int // spooled updates applied (spooler baseline)
	TimeToOperational time.Duration
}

// Config assembles a recovery manager.
type Config struct {
	Site    proto.SiteID
	TM      *txn.Manager
	Local   *dm.Manager
	Net     transport.Transport
	Catalog *replication.Catalog
	Session *session.Manager
	Clock   clock.Clock
	// Recorder and Seq let the spooler baseline attribute its replay
	// installs to a synthetic copier transaction in the history.
	Recorder *history.Recorder
	Seq      *txn.Sequencer
	// Obs receives protocol events and metrics; nil is a no-op sink.
	Obs *obs.Hub
	Identify
	CopierMode CopierMode
	// CopierWorkers sizes the copier pool. Defaults to 2. Negative runs
	// no workers at all: deterministic harnesses (the chaos engine) then
	// drive data recovery synchronously via CopyNow/DrainNow so every
	// copy happens at a known point in their step sequence.
	CopierWorkers int
}

// queueDepth bounds the copier queue.
const queueDepth = 1024

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Identify == 0 {
		c.Identify = IdentifyMarkAll
	}
	if c.CopierMode == 0 {
		c.CopierMode = CopierEager
	}
	if c.CopierWorkers == 0 {
		c.CopierWorkers = 2
	}
	return c
}

// Manager drives recovery and copiers for one site. Create with New; Start
// launches the copier workers, Stop shuts them down.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	pending map[proto.Item]bool
	// inflight counts copyOne calls between entry and return. A copier
	// clears the unreadable mark when its transaction commits, slightly
	// before it counts copier/data_copy or copier/version_skip on the hub;
	// WaitCurrent waits for inflight to drain so its return means those
	// counts are settled.
	inflight int
	// stallGate is non-nil while the copier path is stalled; resuming
	// closes it, waking any parked workers.
	stallGate chan struct{}

	queue chan proto.Item
	stop  chan struct{}
	// cancel aborts the context all in-flight copier transactions run
	// under, so Stop interrupts a blocked copyOne promptly.
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New returns a recovery manager.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:     cfg,
		pending: make(map[proto.Item]bool),
		queue:   make(chan proto.Item, queueDepth),
	}
}

// Start launches the copier worker pool.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	for range m.cfg.CopierWorkers {
		m.wg.Add(1)
		go m.copierLoop(ctx, m.stop)
	}
}

// Stop shuts the copier pool down and waits for it. Canceling the pool
// context interrupts an in-flight copyOne instead of letting it run out its
// own timeout.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, cancel := m.stop, m.cancel
	m.stop, m.cancel = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	if cancel != nil {
		cancel()
	}
	m.wg.Wait()
}

// ErrStalled reports that a synchronous copy was refused because the
// copier path is stalled (SetStalled).
var ErrStalled = errors.New("copier path stalled")

// SetStalled pauses (true) or resumes (false) the copier path: while
// stalled, pool workers park before taking up new work and the
// synchronous CopyNow/DrainNow refuse to copy. The chaos engine uses
// this to model a wedged data-recovery path — the site is operational
// (session claimed) but its unreadable copies stay unreadable.
func (m *Manager) SetStalled(stalled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if stalled {
		if m.stallGate == nil {
			m.stallGate = make(chan struct{})
		}
		return
	}
	if m.stallGate != nil {
		close(m.stallGate)
		m.stallGate = nil
	}
}

// Stalled reports whether the copier path is currently stalled.
func (m *Manager) Stalled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stallGate != nil
}

// RequestCopy enqueues a copier for item, deduplicating concurrent
// requests. It is safe from the DM's unreadable-read callback.
func (m *Manager) RequestCopy(item proto.Item) {
	m.mu.Lock()
	if m.pending[item] {
		m.mu.Unlock()
		return
	}
	m.pending[item] = true
	m.mu.Unlock()
	select {
	case m.queue <- item:
	default:
		// Queue full: drop the dedupe claim so a later read re-triggers.
		m.mu.Lock()
		delete(m.pending, item)
		m.mu.Unlock()
	}
}

// Recover executes the §3.4 procedure. The caller must already have
// restarted the DM (as[k] = 0) and reattached the site to the network. On
// success the site is operational; copiers proceed concurrently.
func (m *Manager) Recover(ctx context.Context) (Report, error) {
	start := m.cfg.Clock.Now()
	report := Report{}
	m.cfg.Obs.RecoveryStart(m.cfg.Site)
	// One recovery span roots the whole §3.4 procedure: decision queries,
	// out-of-date identification, and the type-1 claim's control transaction
	// all trace back to it across processes.
	ctx = obs.WithSpan(ctx, obs.SpanContext{
		Span: obs.NewSpanID(m.cfg.Site), Origin: m.cfg.Site,
	})

	// Step 2a: resolve in-doubt 2PC state from the stable log. Committed
	// or unresolved outcomes imply the local copies of the transaction's
	// write set are stale (the install died with the crash).
	inDoubt := m.cfg.Local.RecoverInDoubt()
	report.InDoubt = len(inDoubt)
	for _, d := range inDoubt {
		m.resolveInDoubt(ctx, d)
	}

	// Step 2b: identify and mark the copies that may have missed updates.
	marked, err := m.markOutOfDate(ctx)
	if err != nil {
		return report, fmt.Errorf("recover %v: identify out-of-date: %w", m.cfg.Site, err)
	}
	report.Marked = marked

	// Steps 3-4: claim nominally up, then load the session number.
	sn, err := m.cfg.Session.ClaimUp(ctx)
	if err != nil {
		return report, fmt.Errorf("recover %v: %w", m.cfg.Site, err)
	}
	m.cfg.Local.SetSession(sn)
	report.Session = sn
	report.TimeToOperational = m.cfg.Clock.Since(start)
	m.cfg.Obs.RecoveryDone(m.cfg.Site, sn, marked)

	// Step 5: data recovery proceeds concurrently with user transactions.
	// With the pool disabled the caller drives it via CopyNow/DrainNow.
	if m.cfg.CopierMode == CopierEager && m.cfg.CopierWorkers > 0 {
		m.Flush()
	}
	return report, nil
}

// resolveInDoubt applies cooperative termination to one in-doubt
// transaction found after the crash and counts its outcome as
// recovery/in_doubt.committed, .aborted or .unresolved. Committed outcomes
// are redone from the prepare record; undecided ones, and committed ones
// whose redo failed, leave their write sets marked unreadable (copiers will
// observe the eventual outcome through ordinary locking at the operational
// sites).
func (m *Manager) resolveInDoubt(ctx context.Context, d dm.InDoubtTxn) {
	// Decision traffic for this transaction is attributed to its own root ID
	// under the recovery span.
	parent, _ := obs.SpanFrom(ctx)
	ctx = obs.WithSpan(ctx, obs.SpanContext{
		Root: d.Txn, Span: obs.NewSpanID(m.cfg.Site),
		Parent: parent.Span, Origin: m.cfg.Site,
	})
	state, seq := m.queryDecision(ctx, d.Origin, d.Txn)
	switch state {
	case proto.StateCommitted:
		if m.cfg.Local.ResolveRecoveredOutcome(d, true, seq) == nil {
			m.cfg.Obs.InDoubt(m.cfg.Site, "committed")
			return
		}
		// The redo failed: the local copies are stale, and no peer lists
		// them as missed, so they must not stay readable.
	case proto.StateAborted, proto.StateUnknown:
		// Unknown from a reachable coordinator is presumed abort. Logging an
		// abort cannot fail.
		_ = m.cfg.Local.ResolveRecoveredOutcome(d, false, 0)
		m.cfg.Obs.InDoubt(m.cfg.Site, "aborted")
		return
	}
	// Still undecided (coordinator active, or unreachable with no witness),
	// or decided but not installed: stay conservative — mark the write set,
	// leave the record in doubt, and hand the transaction back to the
	// janitor so cooperative termination keeps retrying.
	for _, item := range d.Items() {
		m.cfg.Local.Store().MarkUnreadable(item)
	}
	m.cfg.Local.AdoptInDoubt(d)
	m.cfg.Obs.InDoubt(m.cfg.Site, "unresolved")
}

// queryDecision implements the decision lookup: coordinator first (its
// answer is authoritative under presumed abort), then any witness.
// It returns StatePrepared when the outcome is genuinely still open.
func (m *Manager) queryDecision(ctx context.Context, origin proto.SiteID, id proto.TxnID) (proto.TxnState, uint64) {
	if origin != 0 && origin != m.cfg.Site {
		resp, err := m.cfg.Net.Call(ctx, m.cfg.Site, origin, proto.DecisionReq{Txn: id})
		if err == nil {
			if dr, ok := resp.(proto.DecisionResp); ok {
				return dr.State, dr.CommitSeq
			}
		}
	} else if origin == m.cfg.Site {
		// We coordinated it ourselves: our own log is authoritative, and a
		// restarted coordinator never resumes an undecided transaction.
		state, seq := m.cfg.Local.Log().Outcome(id)
		if state == proto.StatePrepared || state == proto.StateUnknown {
			return proto.StateUnknown, 0
		}
		return state, seq
	}
	// Coordinator unreachable: ask the other sites for a witness.
	if state, seq, decisive := witnessDecision(ctx, m.cfg.Net, m.cfg.Site, origin, m.cfg.Catalog.Sites(), id); decisive {
		return state, seq
	}
	// No decisive witness (genuinely open, or no witness at all): stay
	// conservative — classic 2PC blocking.
	return proto.StatePrepared, 0
}

// witnessDecision implements the cooperative-termination witness query: ask
// every peer (excluding self and the coordinator) for the outcome of id and
// return the first decisive answer — a commit or abort — in site order. Where
// an answer is in when its send returns (the simulator) the queries stop at
// the first decisive one; otherwise all peers are asked at once and the scan
// over the ordered results picks the same verdict.
func witnessDecision(ctx context.Context, net transport.Transport, self, origin proto.SiteID, sites []proto.SiteID, id proto.TxnID) (proto.TxnState, uint64, bool) {
	var peers []proto.SiteID
	for _, j := range sites {
		if j != self && j != origin {
			peers = append(peers, j)
		}
	}
	decisive := func(r transport.Result) bool {
		dr, ok := r.Resp.(proto.DecisionResp)
		return r.Err == nil && ok && (dr.State == proto.StateCommitted || dr.State == proto.StateAborted)
	}
	results := transport.Fanout(peers, func(j proto.SiteID) transport.Pending {
		return net.Send(ctx, self, j, proto.DecisionReq{Txn: id})
	}, decisive)
	for _, r := range results {
		if !decisive(r) {
			continue
		}
		dr := r.Resp.(proto.DecisionResp)
		if dr.State == proto.StateCommitted {
			return proto.StateCommitted, dr.CommitSeq, true
		}
		return proto.StateAborted, 0, true
	}
	return proto.StateUnknown, 0, false
}

// markOutOfDate applies the configured identification strategy and returns
// how many copies were marked.
func (m *Manager) markOutOfDate(ctx context.Context) (int, error) {
	store := m.cfg.Local.Store()
	switch m.cfg.Identify {
	case IdentifyMarkAll, IdentifyVersionDiff:
		return store.MarkAllUnreadable(), nil
	case IdentifyFailLock, IdentifyMissingList:
		var peers []proto.SiteID
		for _, j := range m.cfg.Catalog.Sites() {
			if j != m.cfg.Site {
				peers = append(peers, j)
			}
		}
		// Fetch every peer's fail-lock/missing-list bookkeeping at once and
		// merge the answers in site order.
		results := transport.Fanout(peers, func(j proto.SiteID) transport.Pending {
			return m.cfg.Net.Send(ctx, m.cfg.Site, j, proto.MissedFetchReq{For: m.cfg.Site})
		}, nil)
		marked := make(map[proto.Item]bool)
		for _, r := range results {
			if r.Err != nil {
				continue // down sites hold no live bookkeeping
			}
			mf, ok := r.Resp.(proto.MissedFetchResp)
			if !ok {
				continue
			}
			for _, item := range mf.Missed {
				marked[item] = true
			}
			if m.cfg.Identify == IdentifyMissingList {
				m.cfg.Local.AdoptMissed(mf.Others)
			}
		}
		for item := range marked {
			store.MarkUnreadable(item)
		}
		return len(marked), nil
	default:
		return 0, fmt.Errorf("unknown identification strategy %d", m.cfg.Identify)
	}
}

// Flush enqueues a copier for every currently unreadable local copy.
func (m *Manager) Flush() {
	for _, item := range m.cfg.Local.Store().UnreadableItems() {
		m.RequestCopy(item)
	}
}

// WaitCurrent blocks until no local copy is marked unreadable (fully
// current) and no copier is mid-flight, flushing the queue as needed, or
// until the context is done. Waiting out the in-flight copiers makes the
// hub's copier counts settled on return.
func (m *Manager) WaitCurrent(ctx context.Context) error {
	for {
		items := m.cfg.Local.Store().UnreadableItems()
		m.mu.Lock()
		busy := m.inflight
		m.mu.Unlock()
		if len(items) == 0 && busy == 0 {
			return nil
		}
		m.Flush()
		select {
		case <-m.cfg.Clock.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (m *Manager) copierLoop(poolCtx context.Context, stop <-chan struct{}) {
	defer m.wg.Done()
	for {
		select {
		case item := <-m.queue:
			// Park while stalled; Stop still wins.
			m.mu.Lock()
			gate := m.stallGate
			m.mu.Unlock()
			if gate != nil {
				select {
				case <-gate:
				case <-stop:
					return
				}
			}
			// Derive from the pool's lifetime so Stop cancels an
			// in-flight copyOne promptly; the timeout stays as a bound
			// on any single refresh.
			ctx, cancel := context.WithTimeout(poolCtx, 30*time.Second)
			_ = m.CopyNow(ctx, item)
			cancel()
			m.mu.Lock()
			delete(m.pending, item)
			m.mu.Unlock()
		case <-stop:
			return
		}
	}
}

// CopyNow runs one copier transaction for item synchronously, with the
// same hub counts and total-failure accounting as the worker pool. It is how
// deterministic harnesses drive data recovery when the pool is disabled
// (CopierWorkers < 0): every copy happens at a known point in the
// caller's step sequence. A stalled manager returns ErrStalled without
// copying.
func (m *Manager) CopyNow(ctx context.Context, item proto.Item) error {
	if m.Stalled() {
		return ErrStalled
	}
	err := m.copyOne(ctx, item)
	if errors.Is(err, proto.ErrTotalFailure) {
		m.cfg.Obs.CopierTotalFailure(m.cfg.Site, item)
	}
	return err
}

// DrainNow synchronously refreshes unreadable local copies until none
// remain, a full pass makes no progress (no readable source anywhere
// yet), or the manager is stalled. It returns how many copies are still
// unreadable — 0 means the site is fully current.
func (m *Manager) DrainNow(ctx context.Context) int {
	prev := -1
	for {
		items := m.cfg.Local.Store().UnreadableItems()
		if len(items) == 0 || len(items) == prev || m.Stalled() || ctx.Err() != nil {
			return len(items)
		}
		prev = len(items)
		for _, item := range items {
			if err := m.CopyNow(ctx, item); errors.Is(err, ErrStalled) || ctx.Err() != nil {
				return len(m.cfg.Local.Store().UnreadableItems())
			}
		}
	}
}

// copyOne runs one copier transaction for item (§3.2): it reads the nominal
// session vector, pins the stale local copy with an exclusive lock, locates
// a readable copy at an operational site, and installs its content under
// the original writer's version.
func (m *Manager) copyOne(ctx context.Context, item proto.Item) error {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.inflight--
		m.mu.Unlock()
	}()
	var transferred, skipped bool
	var copySource proto.SiteID
	err := m.cfg.TM.RunClass(ctx, proto.ClassCopier, func(ctx context.Context, tx *txn.Tx) error {
		transferred, skipped, copySource = false, false, 0
		if err := tx.LockLocalExclusive(ctx, item); err != nil {
			return err
		}
		if !tx.LocalUnreadable(item) {
			return nil // a user write already refreshed it
		}
		localVal, localVer, err := m.cfg.Local.Store().Committed(item)
		if err != nil {
			return err
		}

		replicas, err := m.cfg.Catalog.Replicas(item)
		if err != nil {
			return err
		}
		view := tx.View()
		var lastErr error
		for _, source := range replicas {
			if source == m.cfg.Site || !view.Up(source) {
				continue
			}
			v, ver, err := tx.RawRead(ctx, source, item, txn.RawReadOpt{
				Mode:   proto.CheckSession,
				Expect: view.Session(source),
			})
			if err != nil {
				lastErr = err
				if errors.Is(err, proto.ErrUnreadable) ||
					errors.Is(err, proto.ErrSiteDown) ||
					errors.Is(err, proto.ErrDropped) {
					continue
				}
				return err
			}
			if m.cfg.Identify == IdentifyVersionDiff && ver == localVer {
				// §5: compare version numbers first; the copy is current,
				// so clear the mark without transferring data.
				skipped, copySource = true, source
				return tx.BufferLocalRefresh(item, localVal, localVer)
			}
			transferred, copySource = true, source
			return tx.BufferLocalRefresh(item, v, ver)
		}
		if lastErr != nil {
			return fmt.Errorf("copier %q: %w", item, lastErr)
		}
		// No readable copy at any operational site: the item is totally
		// failed; a separate protocol (out of the paper's scope) would
		// resolve it.
		return fmt.Errorf("copier %q: %w", item, proto.ErrTotalFailure)
	})
	if err != nil {
		return err
	}
	if transferred {
		m.cfg.Obs.CopierCopy(m.cfg.Site, item, copySource)
	}
	if skipped {
		m.cfg.Obs.CopierSkip(m.cfg.Site, item, copySource)
	}
	return nil
}
