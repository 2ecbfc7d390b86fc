// Package core assembles the full simulated replicated distributed
// database: n sites, each with a storage layer, stable log, lock manager,
// data manager, transaction manager, session manager, recovery manager, and
// cooperative-termination janitor, connected by the network simulator.
//
// It is the library's public face: construct a Cluster, run transactions
// with Exec, crash and recover sites, and certify executions
// one-serializable from the recorded history.
//
//	cluster, _ := core.New(core.Config{
//	    Sites:     5,
//	    Placement: workload.UniformPlacement(items, 3, 5, seed),
//	})
//	cluster.Start()
//	defer cluster.Stop()
//	_ = cluster.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
//	    v, err := tx.Read(ctx, "x")
//	    if err != nil { return err }
//	    return tx.Write(ctx, "x", v+1)
//	})
//	cluster.Crash(3)
//	report, _ := cluster.Recover(ctx, 3)
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/dm"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/metrics"
	"siterecovery/internal/netsim"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/session"
	"siterecovery/internal/spooler"
	"siterecovery/internal/storage"
	"siterecovery/internal/txn"
	"siterecovery/internal/wal"
)

// RecoveryMethod selects the database-recovery approach a cluster uses.
type RecoveryMethod int

// Recovery methods.
const (
	// MethodCopiers is the paper's protocol: mark, claim up, refresh
	// concurrently with user transactions.
	MethodCopiers RecoveryMethod = iota + 1
	// MethodSpooler is the §1 baseline: replay spooled missed updates
	// before resuming normal operations.
	MethodSpooler
)

// String implements fmt.Stringer.
func (m RecoveryMethod) String() string {
	switch m {
	case MethodCopiers:
		return "copiers"
	case MethodSpooler:
		return "spooler"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config describes a cluster.
type Config struct {
	// Sites is the number of sites (IDs 1..Sites). Required.
	Sites int
	// Placement maps each logical item to its replica sites. Required.
	Placement map[proto.Item][]proto.SiteID
	// Profile selects the replica-control strategy. Defaults to ROWAA.
	Profile replication.Profile
	// Identify selects the §5 out-of-date identification strategy.
	// Defaults to IdentifyMarkAll.
	Identify recovery.Identify
	// CopierMode defaults to CopierEager.
	CopierMode recovery.CopierMode
	// Method defaults to MethodCopiers. MethodSpooler implies spooling of
	// missed updates at commit time.
	Method RecoveryMethod
	// LockPolicy and LockTimeout tune the per-site lock managers.
	LockPolicy  lockmgr.Policy
	LockTimeout time.Duration
	// MinLatency/MaxLatency/LossRate/Seed tune the network simulator.
	MinLatency time.Duration
	MaxLatency time.Duration
	LossRate   float64
	Seed       int64
	// ParallelFanout lets multi-replica phases (write-all, prepare/commit,
	// claim broadcasts, witness queries) issue their simulator calls
	// concurrently, so multi-replica latency is the max of the replicas
	// instead of the sum. Off by default: the deterministic harnesses
	// (scripted runs, the chaos engine) need one totally ordered message
	// stream per seed. Real transports (tcpnet) always fan out in parallel.
	ParallelFanout bool
	// MaxAttempts and RetryBackoff tune the transaction retry loop.
	MaxAttempts  int
	RetryBackoff time.Duration
	// JanitorInterval and JanitorStaleAge tune cooperative termination.
	JanitorInterval time.Duration
	JanitorStaleAge time.Duration
	// DetectorDebounce tunes the failure detector.
	DetectorDebounce time.Duration
	// CopierWorkers sizes each site's copier pool. Negative disables the
	// pool; deterministic harnesses then drive copies synchronously via
	// each site's Recovery.CopyNow/DrainNow.
	CopierWorkers int
	// DisableJanitor and DisableDetector switch the background workers off
	// for deterministic tests.
	DisableJanitor  bool
	DisableDetector bool
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Hooks are fault-injection points for tests.
	Hooks Hooks
	// Obs receives protocol events and metrics from every layer of every
	// site. Defaults to the process-wide hub installed with obs.SetDefault
	// (none by default); nil stays a zero-cost no-op sink.
	Obs *obs.Hub
	// Storage picks each site's storage engine; nil means
	// storage.MemFactory, keeping simulated traces byte-identical. The
	// factory runs once per site with that site's WAL in the Deps.
	Storage storage.Factory
}

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

func (c Config) withDefaults() (Config, error) {
	if c.Sites <= 0 {
		return c, fmt.Errorf("config: Sites must be positive")
	}
	if len(c.Placement) == 0 {
		return c, fmt.Errorf("config: Placement must not be empty")
	}
	if c.Profile.Name == "" {
		c.Profile = replication.ROWAA
	}
	if c.Identify == 0 {
		c.Identify = recovery.IdentifyMarkAll
	}
	if c.CopierMode == 0 {
		c.CopierMode = recovery.CopierEager
	}
	if c.Method == 0 {
		c.Method = MethodCopiers
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	return c, nil
}

// InitialSession is the session number every site starts with: the cluster
// models an already-running system.
const InitialSession proto.Session = 1

// Site bundles one site's components.
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

	mu sync.Mutex
	up bool
}

// Up reports whether the site is attached to the network (it may still be
// recovering rather than operational).
func (s *Site) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

// Operational reports whether the site accepts user transactions.
func (s *Site) Operational() bool { return s.DM.Operational() }

// Cluster is a running simulated DDBS. Create with New.
type Cluster struct {
	cfg Config

	net   *netsim.Network
	cat   *replication.Catalog
	seq   *txn.Sequencer
	rec   *history.Recorder
	sites map[proto.SiteID]*Site
	ids   []proto.SiteID

	// TxnLatency and Availability aggregate Exec outcomes.
	TxnLatency   metrics.Histogram
	Availability metrics.Ratio

	mu      sync.Mutex
	started bool
}

// New builds a cluster. Every site starts up and operational with session
// number 1, as if the system had been running; call Start to launch the
// background workers.
func New(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	ids := make([]proto.SiteID, 0, cfg.Sites)
	for i := 1; i <= cfg.Sites; i++ {
		ids = append(ids, proto.SiteID(i))
	}
	cat, err := replication.NewCatalog(ids, cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}

	net := netsim.New(netsim.Config{
		Clock:          cfg.Clock,
		MinLatency:     cfg.MinLatency,
		MaxLatency:     cfg.MaxLatency,
		LossRate:       cfg.LossRate,
		Seed:           cfg.Seed,
		ParallelFanout: cfg.ParallelFanout,
		Obs:            cfg.Obs,
	})
	rec := history.NewRecorder()
	rec.RegisterTxn(txn.InitialTxn, proto.ClassInitial)
	rec.Commit(txn.InitialTxn, 0)
	seq := txn.NewSequencer()

	c := &Cluster{
		cfg:   cfg,
		net:   net,
		cat:   cat,
		seq:   seq,
		rec:   rec,
		sites: make(map[proto.SiteID]*Site, len(ids)),
		ids:   ids,
	}
	tracking := dm.TrackNone
	switch cfg.Identify {
	case recovery.IdentifyFailLock:
		tracking = dm.TrackFailLock
	case recovery.IdentifyMissingList:
		tracking = dm.TrackMissingList
	}

	for _, id := range ids {
		site := &Site{ID: id, up: true}

		var items []proto.Item
		items = append(items, cat.ItemsAt(id)...)
		for _, j := range ids {
			items = append(items, proto.NSItem(j))
		}
		// The log assembles before storage so a redo-logged engine can
		// replay into itself the moment its factory runs.
		site.Log = wal.New()
		factory := cfg.Storage
		if factory == nil {
			factory = storage.MemFactory
		}
		site.Store, err = factory(storage.Deps{
			Site:          id,
			Items:         items,
			InitialWriter: txn.InitialTxn,
			Log:           site.Log,
		})
		if err != nil {
			return nil, fmt.Errorf("site %v storage engine: %w", id, err)
		}
		// Seed NS values only where the copy still carries its initial
		// version; a reopened durable engine keeps its recovered vector.
		for _, j := range ids {
			if _, ver, err := site.Store.Committed(proto.NSItem(j)); err == nil && ver != (proto.Version{Writer: txn.InitialTxn}) {
				continue
			}
			if err := site.Store.Seed(proto.NSItem(j), proto.Value(InitialSession)); err != nil {
				return nil, err
			}
		}
		site.Store.SetSessionCounter(InitialSession)

		site.Locks = lockmgr.New(lockmgr.Config{
			Clock:   cfg.Clock,
			Timeout: cfg.LockTimeout,
			Policy:  cfg.LockPolicy,
		})
		if cfg.Method == MethodSpooler {
			site.Spool = spooler.New()
		}
		site.DM = dm.New(dm.Config{
			Site:     id,
			Store:    site.Store,
			Locks:    site.Locks,
			Log:      site.Log,
			Recorder: rec,
			Clock:    cfg.Clock,
			Tracking: tracking,
			Spool:    site.Spool,
			Obs:      cfg.Obs,
			// The sequencer is shared cluster-wide, so observing commit
			// sequence numbers never moves it; wiring it anyway keeps the
			// messages (prepare votes carry the high-water mark) identical
			// to what srnode's strided sequencers exchange.
			Seq: seq,
		}, dm.Callbacks{
			OnUnreadableRead: func(item proto.Item) {
				// Demand-trigger a copier; in eager mode the request
				// deduplicates against the already-queued refresh.
				if site.Recovery != nil {
					site.Recovery.RequestCopy(item)
				}
			},
			ActiveTxn: func(id proto.TxnID) bool {
				return site.TM != nil && site.TM.Active(id)
			},
		})
		site.DM.SetSession(InitialSession)

		site.TM = txn.New(txn.Config{
			Site:         id,
			Net:          net,
			Local:        site.DM,
			Catalog:      cat,
			Profile:      cfg.Profile,
			Recorder:     rec,
			Seq:          seq,
			Clock:        cfg.Clock,
			Obs:          cfg.Obs,
			MaxAttempts:  cfg.MaxAttempts,
			RetryBackoff: cfg.RetryBackoff,
			Seed:         cfg.Seed + int64(id),
		}, txn.Callbacks{
			OnSiteDown: func(down proto.SiteID, observed proto.Session) {
				if !c.cfg.DisableDetector && site.Session != nil {
					site.Session.ReportDown(down, observed)
				}
			},
			OnPrepared: func(txid proto.TxnID) {
				if c.cfg.Hooks.OnPrepared != nil {
					c.cfg.Hooks.OnPrepared(id, txid)
				}
			},
			OnDecided: func(txid proto.TxnID) {
				if c.cfg.Hooks.OnDecided != nil {
					c.cfg.Hooks.OnDecided(id, txid)
				}
			},
		})

		site.Session = session.New(session.Config{
			Site:     id,
			TM:       site.TM,
			Local:    site.DM,
			Net:      net,
			Catalog:  cat,
			Clock:    cfg.Clock,
			Obs:      cfg.Obs,
			Debounce: cfg.DetectorDebounce,
		})
		site.Recovery = recovery.New(recovery.Config{
			Site:          id,
			TM:            site.TM,
			Local:         site.DM,
			Net:           net,
			Catalog:       cat,
			Session:       site.Session,
			Clock:         cfg.Clock,
			Recorder:      rec,
			Seq:           seq,
			Obs:           cfg.Obs,
			Identify:      cfg.Identify,
			CopierMode:    cfg.CopierMode,
			CopierWorkers: cfg.CopierWorkers,
		})
		site.Janitor = recovery.NewJanitor(recovery.JanitorConfig{
			Site:     id,
			Local:    site.DM,
			Net:      net,
			Catalog:  cat,
			Clock:    cfg.Clock,
			Interval: cfg.JanitorInterval,
			StaleAge: cfg.JanitorStaleAge,
		})

		c.sites[id] = site
		net.Register(id, c.routeFor(site))
	}
	return c, nil
}

// routeFor builds the site's wire dispatcher: spool messages go to the
// spool store, everything else to the data manager.
func (c *Cluster) routeFor(site *Site) netsim.Handler {
	return func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		switch msg.(type) {
		case proto.SpoolAppendReq, proto.SpoolFetchReq:
			if site.Spool == nil {
				return nil, fmt.Errorf("site %v has no spool store", site.ID)
			}
			return site.Spool.Handle(ctx, from, msg)
		default:
			return site.DM.Handle(ctx, from, msg)
		}
	}
}

// Start launches every site's background workers.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	for _, id := range c.ids {
		c.startWorkers(c.sites[id])
	}
}

// Stop shuts all workers down.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return
	}
	c.started = false
	for _, id := range c.ids {
		c.stopWorkers(c.sites[id])
	}
}

func (c *Cluster) startWorkers(s *Site) {
	if !c.cfg.DisableDetector {
		s.Session.Start()
	}
	s.Recovery.Start()
	if !c.cfg.DisableJanitor {
		s.Janitor.Start()
	}
}

func (c *Cluster) stopWorkers(s *Site) {
	s.Janitor.Stop()
	s.Recovery.Stop()
	s.Session.Stop()
}

// Site returns a site's component bundle.
func (c *Cluster) Site(id proto.SiteID) *Site { return c.sites[id] }

// Sites lists the site IDs in ascending order.
func (c *Cluster) Sites() []proto.SiteID {
	return append([]proto.SiteID(nil), c.ids...)
}

// UpSites lists the sites currently attached to the network.
func (c *Cluster) UpSites() []proto.SiteID {
	var out []proto.SiteID
	for _, id := range c.ids {
		if c.sites[id].Up() {
			out = append(out, id)
		}
	}
	return out
}

// Catalog returns the item placement.
func (c *Cluster) Catalog() *replication.Catalog { return c.cat }

// Network returns the network simulator (message statistics, fault
// injection).
func (c *Cluster) Network() *netsim.Network { return c.net }

// Sequencer returns the cluster-wide sequencer.
func (c *Cluster) Sequencer() *txn.Sequencer { return c.seq }

// Obs returns the observability hub the cluster emits into (nil when none
// was configured).
func (c *Cluster) Obs() *obs.Hub { return c.cfg.Obs }

// Exec runs body as a user transaction coordinated by the given site,
// recording latency and availability.
func (c *Cluster) Exec(ctx context.Context, site proto.SiteID, body func(context.Context, *txn.Tx) error) error {
	s, ok := c.sites[site]
	if !ok {
		return fmt.Errorf("unknown site %v", site)
	}
	start := c.cfg.Clock.Now()
	err := s.TM.Run(ctx, body)
	c.TxnLatency.Observe(c.cfg.Clock.Since(start))
	c.Availability.Record(err == nil)
	return err
}

// Crash fail-stops a site: it detaches from the network, loses all
// volatile state, and stops its background workers.
func (c *Cluster) Crash(id proto.SiteID) {
	s, ok := c.sites[id]
	if !ok {
		return
	}
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return
	}
	s.up = false
	s.mu.Unlock()

	c.cfg.Obs.SiteCrash(id)
	c.net.SetDown(id, true)
	c.stopWorkers(s)
	s.DM.Crash()
	s.TM.CrashReset()
	s.Session.CrashReset()
	if s.Spool != nil {
		s.Spool.Crash()
	}
}

// Recover reattaches a crashed site and runs the configured recovery
// procedure. Under the paper's protocol the site is operational when
// Recover returns, while copiers continue refreshing stale copies in the
// background; WaitCurrent blocks until the data recovery has converged.
func (c *Cluster) Recover(ctx context.Context, id proto.SiteID) (recovery.Report, error) {
	s, ok := c.sites[id]
	if !ok {
		return recovery.Report{}, fmt.Errorf("unknown site %v", id)
	}
	s.mu.Lock()
	if s.up {
		s.mu.Unlock()
		return recovery.Report{}, fmt.Errorf("site %v is not down", id)
	}
	s.up = true
	s.mu.Unlock()

	s.DM.Restart()
	c.net.SetDown(id, false)
	c.mu.Lock()
	if c.started {
		c.startWorkers(s)
	}
	c.mu.Unlock()

	switch {
	case c.cfg.Profile.Name != replication.ROWAA.Name:
		return s.Recovery.RecoverBaseline(ctx)
	case c.cfg.Method == MethodSpooler:
		return s.Recovery.RecoverSpooled(ctx)
	default:
		return s.Recovery.Recover(ctx)
	}
}

// WaitCurrent blocks until the site's copies are all readable again.
func (c *Cluster) WaitCurrent(ctx context.Context, id proto.SiteID) error {
	s, ok := c.sites[id]
	if !ok {
		return fmt.Errorf("unknown site %v", id)
	}
	return s.Recovery.WaitCurrent(ctx)
}

// History snapshots the execution history recorded so far.
func (c *Cluster) History() *history.History { return c.rec.Snapshot() }

// Recorder exposes the history recorder (examples registering synthetic
// transactions).
func (c *Cluster) Recorder() *history.Recorder { return c.rec }

// CertifyOneSR checks the recorded history against the revised 1-STG of
// §4.1 with respect to the user database.
func (c *Cluster) CertifyOneSR() (bool, []proto.TxnID) {
	return c.History().CertifyOneSR(history.DomainDB)
}

// CopiesConverged checks that every up-site copy of every item carries the
// same version, returning the divergent items. Quiesce and WaitCurrent
// first.
func (c *Cluster) CopiesConverged() []proto.Item {
	var divergent []proto.Item
	for _, item := range c.cat.Items() {
		replicas, err := c.cat.Replicas(item)
		if err != nil {
			continue
		}
		var (
			seen  bool
			first proto.Version
		)
		ok := true
		for _, site := range replicas {
			s := c.sites[site]
			if !s.Up() || !s.Operational() {
				continue
			}
			_, ver, err := s.Store.Committed(item)
			if err != nil {
				continue
			}
			if !seen {
				first, seen = ver, true
				continue
			}
			if ver != first {
				ok = false
			}
		}
		if !ok {
			divergent = append(divergent, item)
		}
	}
	sort.Slice(divergent, func(i, j int) bool { return divergent[i] < divergent[j] })
	return divergent
}
