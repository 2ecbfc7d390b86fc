package node

import (
	"context"
	"fmt"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/dm"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/session"
	"siterecovery/internal/spooler"
	"siterecovery/internal/storage"
	"siterecovery/internal/transport"
	"siterecovery/internal/txn"
	"siterecovery/internal/wal"
)

// InitialSession is the session number every site starts with: a cluster
// models an already-running system.
const InitialSession = wal.InitialSession

// Hooks expose two-phase-commit instants so tests can crash sites at the
// nastiest moments.
type Hooks struct {
	// OnPrepared fires at the coordinator after all participants voted
	// yes, before the decision is logged.
	OnPrepared func(site proto.SiteID, id proto.TxnID)
	// OnDecided fires right after the commit decision is logged, before
	// commit messages go out.
	OnDecided func(site proto.SiteID, id proto.TxnID)
}

// Env is the world a site is assembled into — the wire, the ID space, time,
// who is watching — decided by whoever builds the cluster, not by its user.
// DESIGN.md "Site assembly" tabulates what core.New and New each pass.
type Env struct {
	// Net carries every request this site sends. Required.
	Net transport.Transport
	// Catalog is the item placement, shared by every site. Required.
	Catalog *replication.Catalog
	// Seq allocates transaction IDs and commit sequence numbers: one shared
	// sequencer per simulated cluster, one strided sequencer per process.
	// Required.
	Seq *txn.Sequencer
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Recorder, when set, receives the logical history for 1-SR
	// certification.
	Recorder *history.Recorder
	// Spool, when set, makes this the §1 spooler baseline: missed updates
	// are spooled here at commit time and Recover replays them before the
	// site resumes.
	Spool *spooler.Store
	// Hooks are fault-injection points for tests.
	Hooks Hooks
	// Seed, plus the site ID, seeds the retry loop's jitter.
	Seed int64
	// DisableBackground switches the failure detector and the janitor off
	// for deterministic runs: no type-2 claim and no cooperative
	// termination happens unless the caller drives it.
	DisableBackground bool
}

// SiteConfig is one site's own configuration: the fields core.Config passes
// through and Config embeds.
type SiteConfig struct {
	// Site is this site's ID (1-based). Required.
	Site proto.SiteID
	// Profile defaults to ROWAA.
	Profile replication.Profile
	// Identify defaults to IdentifyMarkAll.
	Identify recovery.Identify
	// CopierMode defaults to CopierEager.
	CopierMode recovery.CopierMode
	// LockPolicy and LockTimeout tune the lock manager.
	LockPolicy  lockmgr.Policy
	LockTimeout time.Duration
	// MaxAttempts and RetryBackoff tune the transaction retry loop.
	MaxAttempts  int
	RetryBackoff time.Duration
	// JanitorInterval and JanitorStaleAge tune cooperative termination.
	JanitorInterval time.Duration
	JanitorStaleAge time.Duration
	// DetectorDebounce tunes the failure detector.
	DetectorDebounce time.Duration
	// CopierWorkers sizes the copier pool. Negative disables the pool;
	// deterministic harnesses then drive copies synchronously via
	// Recovery.CopyNow/DrainNow.
	CopierWorkers int
	// Obs receives protocol events and metrics; nil is a no-op sink.
	Obs *obs.Hub
	// Engine picks the storage engine; nil means storage.MemFactory. The
	// factory runs after the log is assembled, so a redo-logged engine
	// (storage/disk) replays what the log loaded before the site serves
	// anything.
	Engine storage.Factory
	// Log is the site's stable log, which also holds its §3.1 session
	// counter; nil means wal.New(), a log that survives Crash but not the
	// process. cmd/srnode passes wal.Open over its -statedir, so a restarted
	// process answers decision queries from its durable history and never
	// reuses a session number.
	Log *wal.Log

	// StartDown assembles the site in the crashed state: its dispatcher
	// answers ErrSiteDown, no workers run and no session is installed until
	// Recover. A process restarted after a real SIGKILL starts this way —
	// its peers excluded it while it was dead, so serving from fresh
	// in-memory state before running the §3.4 recovery procedure would hand
	// out stale data.
	StartDown bool
	// ReuseSessionBug is a chaos-testing hook (SRNODE_BUG=reuse-session):
	// type-1 claims reuse the current session counter instead of advancing
	// it, deliberately violating §3.1 so the trace suite's detection and
	// the schedule shrinker can be exercised end to end. Never set it
	// outside fault-injection tests.
	ReuseSessionBug bool
}

// Site is one site of the replicated database: stable log, storage, lock
// manager, data manager, transaction manager, session manager, recovery
// manager and cooperative-termination janitor over whatever transport it
// was given. Create with NewSite, register Handle with the transport, then
// Start.
type Site struct {
	ID proto.SiteID

	Store    storage.Engine
	Locks    *lockmgr.Manager
	Log      *wal.Log
	Spool    *spooler.Store
	DM       *dm.Manager
	TM       *txn.Manager
	Session  *session.Manager
	Recovery *recovery.Manager
	Janitor  *recovery.Janitor

	profile           replication.Profile
	obs               *obs.Hub
	disableBackground bool

	mu      sync.Mutex
	up      bool
	started bool
}

// NewSite assembles a site. Unless StartDown is set it is nominally up and
// operational with session number 1, as if the system had been running;
// call Start to launch its background workers.
func NewSite(env Env, cfg SiteConfig) (*Site, error) {
	if cfg.Profile.Name == "" {
		cfg.Profile = replication.ROWAA
	}
	id, cat, seq := cfg.Site, env.Catalog, env.Seq
	s := &Site{
		ID: id, Log: cfg.Log, Spool: env.Spool, up: true,
		profile: cfg.Profile, obs: cfg.Obs,
		disableBackground: env.DisableBackground,
	}
	// The log comes before storage so a redo-logged engine can replay the
	// records it loaded the moment its factory runs.
	if s.Log == nil {
		s.Log = wal.New()
	}

	ids := cat.Sites()
	var items []proto.Item
	items = append(items, cat.ItemsAt(id)...)
	for _, j := range ids {
		items = append(items, proto.NSItem(j))
	}
	factory := cfg.Engine
	if factory == nil {
		factory = storage.MemFactory
	}
	var err error
	s.Store, err = factory(storage.Deps{
		Site:          id,
		Items:         items,
		InitialWriter: txn.InitialTxn,
		Log:           s.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("site %v storage engine: %w", id, err)
	}
	// Seed NS values only where the copy still carries its initial version:
	// a reopened durable engine keeps the NS vector it recovered, which a
	// blanket re-seed would clobber.
	for _, j := range ids {
		if _, ver, err := s.Store.Committed(proto.NSItem(j)); err == nil && ver != (proto.Version{Writer: txn.InitialTxn}) {
			continue
		}
		if err := s.Store.Seed(proto.NSItem(j), proto.Value(InitialSession)); err != nil {
			return nil, err
		}
	}

	// A lock request that queues asks the peers for what it may be waiting
	// on, a decision still in an outbox, where the transport has outboxes
	// (tcpnet; netsim has none).
	var waiting func()
	if asker, ok := env.Net.(interface{ AskPeers() }); ok {
		waiting = asker.AskPeers
	}
	s.Locks = lockmgr.New(lockmgr.Config{
		Site:    id,
		Obs:     cfg.Obs,
		Clock:   env.Clock,
		Timeout: cfg.LockTimeout,
		Policy:  cfg.LockPolicy,
		Waiting: waiting,
	})

	tracking := dm.TrackNone
	switch cfg.Identify {
	case recovery.IdentifyFailLock:
		tracking = dm.TrackFailLock
	case recovery.IdentifyMissingList:
		tracking = dm.TrackMissingList
	}
	s.DM = dm.New(dm.Config{
		Site:     id,
		Store:    s.Store,
		Locks:    s.Locks,
		Log:      s.Log,
		Recorder: env.Recorder,
		Clock:    env.Clock,
		Tracking: tracking,
		Spool:    s.Spool,
		Obs:      cfg.Obs,
		// The DM and TM fold every commit sequence number they learn from
		// peers back into the sequencer (Lamport-style), which keeps version
		// comparisons aligned with commit order across strided per-process
		// sequencers. A sequencer shared cluster-wide never moves when
		// observed, but the messages (prepare votes carry the high-water
		// mark) stay identical on both transports.
		Seq: seq,
	}, dm.Callbacks{
		OnUnreadableRead: func(item proto.Item) {
			// Demand-trigger a copier; in eager mode the request
			// deduplicates against the already-queued refresh.
			if s.Recovery != nil {
				s.Recovery.RequestCopy(item)
			}
		},
		ActiveTxn: func(id proto.TxnID) bool {
			return s.TM != nil && s.TM.Active(id)
		},
	})
	s.DM.SetSession(InitialSession)

	s.TM = txn.New(txn.Config{
		Site:         id,
		Net:          env.Net,
		Local:        s.DM,
		Catalog:      cat,
		Profile:      cfg.Profile,
		Recorder:     env.Recorder,
		Seq:          seq,
		Clock:        env.Clock,
		Obs:          cfg.Obs,
		MaxAttempts:  cfg.MaxAttempts,
		RetryBackoff: cfg.RetryBackoff,
		Seed:         env.Seed + int64(id),
	}, txn.Callbacks{
		OnSiteDown: func(down proto.SiteID, observed proto.Session) {
			if !env.DisableBackground && s.Session != nil {
				s.Session.ReportDown(down, observed)
			}
		},
		OnPrepared: func(txid proto.TxnID) {
			if env.Hooks.OnPrepared != nil {
				env.Hooks.OnPrepared(id, txid)
			}
		},
		OnDecided: func(txid proto.TxnID) {
			if env.Hooks.OnDecided != nil {
				env.Hooks.OnDecided(id, txid)
			}
		},
	})

	s.Session = session.New(session.Config{
		Site:               id,
		TM:                 s.TM,
		Local:              s.DM,
		Net:                env.Net,
		Catalog:            cat,
		Clock:              env.Clock,
		Obs:                cfg.Obs,
		Debounce:           cfg.DetectorDebounce,
		UnsafeReuseSession: cfg.ReuseSessionBug,
	})
	s.Recovery = recovery.New(recovery.Config{
		Site:          id,
		TM:            s.TM,
		Local:         s.DM,
		Net:           env.Net,
		Catalog:       cat,
		Session:       s.Session,
		Clock:         env.Clock,
		Recorder:      env.Recorder,
		Seq:           seq,
		Obs:           cfg.Obs,
		Identify:      cfg.Identify,
		CopierMode:    cfg.CopierMode,
		CopierWorkers: cfg.CopierWorkers,
	})
	s.Janitor = recovery.NewJanitor(recovery.JanitorConfig{
		Local:    s.DM,
		Net:      env.Net,
		Catalog:  cat,
		Clock:    env.Clock,
		Interval: cfg.JanitorInterval,
		StaleAge: cfg.JanitorStaleAge,
	})

	// The crash event marks the down state in this site's own trace.
	if cfg.StartDown {
		s.up = false
		s.DM.Crash()
		cfg.Obs.SiteCrash(id)
	}
	return s, nil
}

// Handle is the site's wire dispatcher: spool fetches go to the spool
// store, everything else to the data manager. A crashed site answers every
// request with ErrSiteDown: to its peers it is indistinguishable from a
// refused connection, while its stable storage survives for Recover.
func (s *Site) Handle(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
	if err := s.DM.Down(); err != nil {
		return nil, err
	}
	switch msg.(type) {
	case proto.SpoolFetchReq:
		if s.Spool == nil {
			return nil, fmt.Errorf("site %v has no spool store", s.ID)
		}
		return s.Spool.Handle(ctx, from, msg)
	default:
		return s.DM.Handle(ctx, from, msg)
	}
}

// Start launches the background workers. A down site launches none until
// Recover brings it back.
func (s *Site) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	if s.up {
		s.startWorkers()
	}
}

// Stop shuts the workers down.
func (s *Site) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return
	}
	s.started = false
	s.stopWorkers()
}

func (s *Site) startWorkers() {
	s.Recovery.Start()
	if !s.disableBackground {
		s.Session.Start()
		s.Janitor.Start()
	}
}

func (s *Site) stopWorkers() {
	s.Janitor.Stop()
	s.Recovery.Stop()
	s.Session.Stop()
}

// Up reports whether the site is up (it may still be recovering rather
// than operational).
func (s *Site) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

// Operational reports whether the site accepts user transactions.
func (s *Site) Operational() bool { return s.DM.Operational() }

// Crash fail-stops the site: volatile state is lost, background workers
// stop, and every subsequent request is answered with ErrSiteDown until
// Recover.
func (s *Site) Crash() {
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return
	}
	s.up = false
	s.mu.Unlock()

	s.obs.SiteCrash(s.ID)
	s.stopWorkers()
	s.DM.Crash()
	s.TM.CrashReset()
	s.Session.CrashReset()
	if s.Spool != nil {
		s.Spool.Crash()
	}
}

// Recover restarts a crashed site and runs its recovery procedure. Under
// the paper's protocol — resolve in-doubt transactions, mark out-of-date
// copies, claim the site nominally up (type-1) — the site is operational
// when Recover returns, while copiers continue refreshing stale copies in
// the background; WaitCurrent blocks until they have converged.
func (s *Site) Recover(ctx context.Context) (recovery.Report, error) {
	s.mu.Lock()
	if s.up {
		s.mu.Unlock()
		return recovery.Report{}, fmt.Errorf("site %v is not down", s.ID)
	}
	s.up = true
	s.DM.Restart()
	if s.started {
		s.startWorkers()
	}
	s.mu.Unlock()

	switch {
	case s.profile.Name != replication.ROWAA.Name:
		return s.Recovery.RecoverBaseline(ctx)
	case s.Spool != nil:
		return s.Recovery.RecoverSpooled(ctx)
	default:
		return s.Recovery.Recover(ctx)
	}
}

// WaitCurrent blocks until every local copy is readable again.
func (s *Site) WaitCurrent(ctx context.Context) error {
	return s.Recovery.WaitCurrent(ctx)
}

// Exec runs body as a user transaction coordinated by this site.
func (s *Site) Exec(ctx context.Context, body func(context.Context, *txn.Tx) error) error {
	return s.TM.Run(ctx, body)
}
