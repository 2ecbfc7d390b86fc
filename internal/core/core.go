// Package core assembles the full simulated replicated distributed
// database: n sites (node.Site — the same stack cmd/srnode runs over TCP)
// connected by the network simulator, sharing one sequencer and one history
// recorder.
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
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/netsim"
	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/spooler"
	"siterecovery/internal/storage"
	"siterecovery/internal/txn"
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
	// MinLatency/MaxLatency/Seed tune the network simulator; its loss rate
	// is Network().SetLossRate.
	MinLatency time.Duration
	MaxLatency time.Duration
	Seed       int64
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
	// DisableBackground switches every site's failure detector and janitor
	// off for deterministic runs.
	DisableBackground bool
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
type Hooks = node.Hooks

func (c Config) withDefaults() (Config, error) {
	if c.Sites <= 0 {
		return c, fmt.Errorf("config: Sites must be positive")
	}
	if len(c.Placement) == 0 {
		return c, fmt.Errorf("config: Placement must not be empty")
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
const InitialSession = node.InitialSession

// Site is one site's component bundle and lifecycle.
type Site = node.Site

// Cluster is a running simulated DDBS. Create with New.
type Cluster struct {
	cfg Config

	net   *netsim.Network
	cat   *replication.Catalog
	rec   *history.Recorder
	sites map[proto.SiteID]*Site
	ids   []proto.SiteID
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
		Clock:      cfg.Clock,
		MinLatency: cfg.MinLatency,
		MaxLatency: cfg.MaxLatency,
		Seed:       cfg.Seed,
		Obs:        cfg.Obs,
	})
	rec := history.NewRecorder()
	rec.RegisterTxn(txn.InitialTxn, proto.ClassInitial)
	rec.Commit(txn.InitialTxn, 0)

	c := &Cluster{
		cfg:   cfg,
		net:   net,
		cat:   cat,
		rec:   rec,
		sites: make(map[proto.SiteID]*Site, len(ids)),
		ids:   ids,
	}
	// The simulator's deliberate choices: one sequencer and one history
	// recorder shared by every site, the cluster's (possibly virtual) clock,
	// the 250 ms lock timeout withDefaults picked, and a spool store per
	// site only for the spooler baseline. No stable-state preload or sinks:
	// a simulated site never outlives its process.
	env := node.Env{
		Net:               net,
		Catalog:           cat,
		Seq:               txn.NewSequencer(),
		Clock:             cfg.Clock,
		Recorder:          rec,
		Hooks:             cfg.Hooks,
		Seed:              cfg.Seed,
		DisableBackground: cfg.DisableBackground,
	}
	for _, id := range ids {
		if cfg.Method == MethodSpooler {
			env.Spool = spooler.New()
		}
		site, err := node.NewSite(env, node.SiteConfig{
			Site:             id,
			Profile:          cfg.Profile,
			Identify:         cfg.Identify,
			CopierMode:       cfg.CopierMode,
			LockPolicy:       cfg.LockPolicy,
			LockTimeout:      cfg.LockTimeout,
			MaxAttempts:      cfg.MaxAttempts,
			RetryBackoff:     cfg.RetryBackoff,
			JanitorInterval:  cfg.JanitorInterval,
			JanitorStaleAge:  cfg.JanitorStaleAge,
			DetectorDebounce: cfg.DetectorDebounce,
			CopierWorkers:    cfg.CopierWorkers,
			Obs:              cfg.Obs,
			Engine:           cfg.Storage,
		})
		if err != nil {
			return nil, err
		}
		c.sites[id] = site
		net.Register(id, site.Handle)
	}
	return c, nil
}

// Start launches every site's background workers.
func (c *Cluster) Start() {
	for _, id := range c.ids {
		c.sites[id].Start()
	}
}

// Stop shuts all workers down.
func (c *Cluster) Stop() {
	for _, id := range c.ids {
		c.sites[id].Stop()
	}
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

// Obs returns the observability hub the cluster emits into (nil when none
// was configured).
func (c *Cluster) Obs() *obs.Hub { return c.cfg.Obs }

// Exec runs body as a user transaction coordinated by the given site.
func (c *Cluster) Exec(ctx context.Context, site proto.SiteID, body func(context.Context, *txn.Tx) error) error {
	s, ok := c.sites[site]
	if !ok {
		return fmt.Errorf("unknown site %v", site)
	}
	return s.Exec(ctx, body)
}

// Crash fail-stops a site: it detaches from the network, loses all
// volatile state, and stops its background workers.
func (c *Cluster) Crash(id proto.SiteID) {
	s, ok := c.sites[id]
	if !ok {
		return
	}
	c.net.SetDown(id, true)
	s.Crash()
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
	// Until the site's own Recover restarts its data manager, its
	// dispatcher keeps answering ErrSiteDown over the reattached link.
	c.net.SetDown(id, false)
	return s.Recover(ctx)
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
