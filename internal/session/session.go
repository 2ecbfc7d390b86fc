// Package session implements the nominal-session-number machinery of §3:
// the two kinds of control transactions that are the only writers of the
// NS data items, and the failure detector that triggers type-2 claims.
//
//   - A type-1 control transaction ("site k is nominally up") is initiated
//     by the recovering site itself: it reads an available copy of the
//     nominal session vector, refreshes its own copies (acting as a copier
//     for the other NS[j]), chooses a fresh session number, and writes it
//     to every available copy of NS[k] (§3.3, §3.4 step 3).
//   - A type-2 control transaction ("sites D are down") can be initiated by
//     any site that is sure the claimed sites are actually down — in this
//     simulator the network reports crashes definitively, matching the
//     paper's fail-stop model. The claim is conditional on the session
//     number the claimer observed, so a site that crashed and already
//     re-claimed itself up is never zombied back to nominally-down.
//
// Control transactions run through the ordinary transaction manager: they
// follow the same concurrency control and commit protocol as user
// transactions (§3.3) and can be processed by recovering sites. Their
// outcomes are counted on the obs hub (session/type1_committed, ...), not
// by the manager.
package session

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/dm"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/transport"
	"siterecovery/internal/txn"
)

// Config assembles a session manager.
type Config struct {
	Site    proto.SiteID
	TM      *txn.Manager
	Local   *dm.Manager
	Net     transport.Transport
	Catalog *replication.Catalog
	Clock   clock.Clock
	// Obs receives protocol events and metrics; nil is a no-op sink.
	Obs *obs.Hub
	// Debounce suppresses repeated type-2 claims for the same site within
	// the window. Defaults to 50ms.
	Debounce time.Duration
	// UnsafeReuseSession is a chaos-testing hook: type-1 claims reuse the
	// current session counter instead of durably advancing it, violating
	// §3.1's uniqueness guarantee on purpose so the trace invariant suite
	// has a real bug to catch. Never set outside fault-injection tests.
	UnsafeReuseSession bool
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Debounce == 0 {
		c.Debounce = 50 * time.Millisecond
	}
	return c
}

// queueDepth bounds the failure-detector queue.
const queueDepth = 64

type claim struct {
	site     proto.SiteID
	observed proto.Session
}

// peerCrashed ends a type-1 claim whose last attempt's commit found a
// participant crashed. The body asks for the abort (ErrAbortRequested), so
// RunClass does not retry against the dead site; ClaimUp excludes it with a
// type-2 claim at once.
type peerCrashed struct{ claim }

func (e peerCrashed) Error() string {
	return fmt.Sprintf("site %v crashed under the type-1 claim", e.site)
}

func (peerCrashed) Unwrap() error { return proto.ErrAbortRequested }

// Manager runs control transactions for one site. Create with New; Start
// launches the failure-detector worker, Stop shuts it down.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	lastClaim map[proto.SiteID]time.Time

	queue chan claim
	stop  chan struct{}
	done  chan struct{}
}

// New returns a session manager.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:       cfg,
		lastClaim: make(map[proto.SiteID]time.Time),
		queue:     make(chan claim, queueDepth),
	}
}

// Start launches the failure-detector worker that turns ReportDown calls
// into type-2 control transactions.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.detectorLoop(m.stop, m.done)
}

// Stop shuts the worker down and waits for it to exit.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// CrashReset wipes volatile detector state when the site crashes: queued
// down-reports from the previous incarnation must not be replayed after
// recovery.
func (m *Manager) CrashReset() {
	for {
		select {
		case <-m.queue:
		default:
			m.mu.Lock()
			m.lastClaim = make(map[proto.SiteID]time.Time)
			m.mu.Unlock()
			return
		}
	}
}

// ReportDown enqueues a type-2 claim for a site observed down under the
// given session number. It never blocks (the transaction-manager callback
// must not); an overflowing queue drops the report, which is safe because
// the next failed operation reports again.
func (m *Manager) ReportDown(site proto.SiteID, observed proto.Session) {
	if observed == proto.NoSession {
		// Without an observed session number the claim cannot be made
		// conditional; the site is either already nominally down or will
		// be reported again by a transaction that carried its session.
		return
	}
	select {
	case m.queue <- claim{site: site, observed: observed}:
	default:
	}
}

func (m *Manager) detectorLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case c := <-m.queue:
			if !m.debounced(c.site) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_ = m.ClaimDown(ctx, c.site, c.observed) // next failure re-reports
				cancel()
			}
		case <-stop:
			return
		}
	}
}

func (m *Manager) debounced(site proto.SiteID) bool {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if last, ok := m.lastClaim[site]; ok && now.Sub(last) < m.cfg.Debounce {
		return true
	}
	m.lastClaim[site] = now
	return false
}

// ClaimDown runs a type-2 control transaction claiming that site is down,
// conditional on its nominal session number still being the one the caller
// observed. A stale claim (the site is already nominally down, or it
// crashed and already re-claimed itself up under a new session) commits
// nothing.
func (m *Manager) ClaimDown(ctx context.Context, site proto.SiteID, observed proto.Session) error {
	return m.ClaimDownMany(ctx, map[proto.SiteID]proto.Session{site: observed})
}

// ClaimDownMany claims several sites down in one type-2 control transaction
// ("a control transaction of type 2 claims that one or more sites are
// down", §3.3). Each claim is conditional on its observed session number.
func (m *Manager) ClaimDownMany(ctx context.Context, claims map[proto.SiteID]proto.Session) error {
	alsoDown := maps.Clone(claims)
	vec := make(map[proto.SiteID]proto.Session, m.cfg.Catalog.NumSites())
	var last *txn.Tx
	err := m.cfg.TM.RunClass(ctx, proto.ClassControl2, func(ctx context.Context, tx *txn.Tx) error {
		// Another site crashed under the last attempt's commit: claim the
		// union (§3.4's "exclude the newly crashed site").
		if c, ok := crashedAt(last, vec); ok {
			alsoDown[c.site] = c.observed
		}
		last = tx
		return m.claimDownBody(ctx, tx, alsoDown, vec)
	})
	if err != nil {
		m.cfg.Obs.Control2Fail(m.cfg.Site, err)
		return fmt.Errorf("type-2 claim for %v: %w", claimed(claims), err)
	}
	m.cfg.Obs.Control2(m.cfg.Site, claimed(claims))
	return nil
}

// crashedAt reports the participant that the commit of last, a control
// transaction's last attempt, found crashed, under the session number vec —
// that attempt's reading of the nominal session vector — holds for it.
func crashedAt(last *txn.Tx, vec map[proto.SiteID]proto.Session) (claim, bool) {
	if last == nil {
		return claim{}, false
	}
	site, err := last.Failed()
	if !errors.Is(err, proto.ErrSiteDown) {
		return claim{}, false
	}
	return claim{site: site, observed: vec[site]}, true
}

func claimed(claims map[proto.SiteID]proto.Session) []proto.SiteID {
	out := make([]proto.SiteID, 0, len(claims))
	for s := range claims {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// claimDownBody is one attempt of the type-2 transaction: it reads the
// nominal session vector into vec and buffers the claim's writes. The claims
// map accumulates sites discovered crashed during earlier attempts, so a
// retry claims the whole set at once.
func (m *Manager) claimDownBody(ctx context.Context, tx *txn.Tx, claims, vec map[proto.SiteID]proto.Session) error {
	vecSource, err := m.vectorSource(ctx)
	if err != nil {
		return err
	}
	// Read the nominal session vector (S locks at the source).
	clear(vec)
	for _, j := range m.cfg.Catalog.Sites() {
		v, _, err := tx.RawRead(ctx, vecSource, proto.NSItem(j), txn.RawReadOpt{})
		if err != nil {
			return err
		}
		vec[j] = proto.Session(v)
	}

	// Keep only claims that are still current: the nominal session number
	// must equal what the claimer observed when the failure happened.
	targetsDown := make(map[proto.SiteID]bool, len(claims))
	for s, obs := range claims {
		if vec[s] == obs && obs != proto.NoSession {
			targetsDown[s] = true
		}
	}
	if len(targetsDown) == 0 {
		m.cfg.Obs.Control2Skip(m.cfg.Site)
		return nil // stale claim; empty transaction commits trivially
	}

	// Write 0 to all available copies of NS[d]: the nominally-up sites
	// minus the ones being claimed down. Commit takes each up site its
	// writes in one batch, which is also its prepare.
	var upSites []proto.SiteID
	for _, j := range m.cfg.Catalog.Sites() {
		if vec[j] != proto.NoSession && !targetsDown[j] {
			upSites = append(upSites, j)
		}
	}
	for d := range targetsDown {
		if err := tx.RawWrite(upSites, proto.NSItem(d), proto.Value(proto.NoSession)); err != nil {
			return err
		}
	}
	return nil
}

// ClaimUp runs the type-1 control transaction for this (recovering) site
// and returns the new session number on success. It handles §3.4 step 4's
// failure path internally: if the claim aborts because another site
// crashed, it excludes that site with a type-2 claim and tries again. The
// caller loads the returned session number into as[k] to become
// operational.
func (m *Manager) ClaimUp(ctx context.Context) (proto.Session, error) {
	const maxRounds = 8
	var lastErr error
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return proto.NoSession, err
		}
		sn, failed, err := m.claimUpOnce(ctx)
		if err == nil {
			m.cfg.Obs.Control1(m.cfg.Site, sn)
			return sn, nil
		}
		lastErr = err
		m.cfg.Obs.Control1Fail(m.cfg.Site, err)
		if failed.site != 0 {
			// §3.4 step 4: exclude the newly crashed site, then retry.
			_ = m.ClaimDown(ctx, failed.site, failed.observed)
		}
	}
	return proto.NoSession, fmt.Errorf("type-1 claim for %v gave up: %w", m.cfg.Site, lastErr)
}

// claimUpOnce runs a single type-1 transaction. On failure it reports which
// site, if any, was observed crashed during the attempt. An attempt whose
// commit found a participant crashed is the last: the next one ends at once
// with peerCrashed, before it draws a session number.
func (m *Manager) claimUpOnce(ctx context.Context) (proto.Session, claim, error) {
	var (
		newSession proto.Session
		crashed    claim
		last       *txn.Tx
	)
	vec := make(map[proto.SiteID]proto.Session, m.cfg.Catalog.NumSites())
	err := m.cfg.TM.RunClass(ctx, proto.ClassControl1, func(ctx context.Context, tx *txn.Tx) error {
		if c, ok := crashedAt(last, vec); ok {
			return peerCrashed{c}
		}
		last = tx
		source, err := m.FindOperationalPeer(ctx)
		if err != nil {
			return err
		}

		// Read the vector from the operational source, refreshing our own
		// copies with the original versions (copier-like; §4.2 treats the
		// type-1 transaction as a writer only of NS[k]).
		self := m.cfg.Site
		clear(vec)
		for _, j := range m.cfg.Catalog.Sites() {
			v, ver, err := tx.RawRead(ctx, source, proto.NSItem(j), txn.RawReadOpt{})
			if err != nil {
				if errors.Is(err, proto.ErrSiteDown) {
					crashed = claim{site: source, observed: vec[source]}
				}
				return err
			}
			vec[j] = proto.Session(v)
			if j == self {
				continue // overwritten below with the new session number
			}
			if err := tx.LockLocalExclusive(ctx, proto.NSItem(j)); err != nil {
				return err
			}
			if err := tx.BufferLocalRefresh(proto.NSItem(j), v, ver); err != nil {
				return err
			}
		}

		// Choose the session number for the next operational session from
		// the stable counter (unique in this site's history, §3.1). The
		// UnsafeReuseSession chaos hook deliberately breaks that uniqueness
		// by reading the counter without advancing it.
		var sn proto.Session
		if m.cfg.UnsafeReuseSession {
			sn = m.cfg.Local.Log().Session()
		} else {
			sn = m.cfg.Local.Log().NextSession()
		}

		// Write it to our own copy of NS[self] and to every nominally-up
		// site's copy. Commit's flush names the first of them, in site
		// order, that it found crashed, whichever reply came back first.
		targets := []proto.SiteID{self}
		for _, j := range m.cfg.Catalog.Sites() {
			if j != self && vec[j] != proto.NoSession {
				targets = append(targets, j)
			}
		}
		newSession = sn
		return tx.RawWrite(targets, proto.NSItem(self), proto.Value(sn))
	})
	if err != nil {
		var pc peerCrashed
		if errors.As(err, &pc) {
			crashed = pc.claim
		} else if c, ok := crashedAt(last, vec); ok {
			crashed = c // the attempts ran out on a crashed participant
		}
		return proto.NoSession, crashed, err
	}
	return newSession, claim{}, nil
}

// vectorSource picks where to read the nominal session vector: locally when
// this site is operational (the usual type-2 case), otherwise from an
// operational peer (a recovering site running a type-2 after its type-1
// failed).
func (m *Manager) vectorSource(ctx context.Context) (proto.SiteID, error) {
	if m.cfg.Local.Operational() {
		return m.cfg.Site, nil
	}
	return m.FindOperationalPeer(ctx)
}

// FindOperationalPeer probes the other sites and returns the lowest-ID
// operational one. The paper's recovery requires at least one: with none,
// recovery must wait (§3.4). Where a probe's answer is in when its send
// returns (the simulator) the probes stop at the first operational answer;
// otherwise every peer is probed at once and the lowest-ID operational
// answer wins, so both pick the same peer.
func (m *Manager) FindOperationalPeer(ctx context.Context) (proto.SiteID, error) {
	var peers []proto.SiteID
	for _, j := range m.cfg.Catalog.Sites() {
		if j != m.cfg.Site {
			peers = append(peers, j)
		}
	}
	operational := func(r *transport.Result) bool {
		pr, ok := r.Resp.(proto.ProbeResp)
		return r.Err == nil && ok && pr.Operational
	}
	results := transport.Fanout(nil, peers, func(j proto.SiteID) transport.Pending {
		return m.cfg.Net.Send(ctx, m.cfg.Site, j, proto.ProbeReq{})
	}, operational)
	for _, r := range results { // results follow ascending site order
		if operational(&r) {
			return r.Site, nil
		}
	}
	return 0, fmt.Errorf("no operational peer: %w", proto.ErrUnavailable)
}
