package core

import (
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/storage"
)

// Option mutates a Config during NewCluster. The functional-options
// constructor is the v2 construction API: it reads as the experiment it
// configures and leaves room for new knobs without breaking call sites.
// core.New(Config{...}) remains as the compatibility path; both funnel
// through the same withDefaults validation, so a cluster built either way
// behaves identically.
type Option func(*Config)

// NewCluster builds a cluster from functional options:
//
//	cluster, err := core.NewCluster(
//	    core.WithSites(5),
//	    core.WithPlacement(placement),
//	    core.WithSeed(7),
//	)
//
// Defaults match core.New: ROWAA profile, copier recovery, mark-all
// identification, wall clock.
func NewCluster(opts ...Option) (*Cluster, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return New(cfg)
}

// WithSites sets the number of sites (IDs 1..n).
func WithSites(n int) Option {
	return func(c *Config) { c.Sites = n }
}

// WithPlacement sets the logical-item replica placement.
func WithPlacement(placement map[proto.Item][]proto.SiteID) Option {
	return func(c *Config) { c.Placement = placement }
}

// WithProfile selects the replica-control strategy.
func WithProfile(p replication.Profile) Option {
	return func(c *Config) { c.Profile = p }
}

// WithRecoveryMethod selects the database-recovery approach.
func WithRecoveryMethod(m RecoveryMethod) Option {
	return func(c *Config) { c.Method = m }
}

// WithIdentify selects the §5 out-of-date identification strategy.
func WithIdentify(id recovery.Identify) Option {
	return func(c *Config) { c.Identify = id }
}

// WithObs wires an observability hub into every layer of every site.
func WithObs(hub *obs.Hub) Option {
	return func(c *Config) { c.Obs = hub }
}

// WithParallelFanout lets multi-replica phases (write-all, prepare/commit,
// claim broadcasts) issue their per-site calls concurrently instead of
// sequentially, so a phase costs one round-trip instead of one per replica.
func WithParallelFanout(on bool) Option {
	return func(c *Config) { c.ParallelFanout = on }
}

// WithSeed seeds the network simulator and retry jitter.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithLatency sets the simulated per-message latency range.
func WithLatency(min, max time.Duration) Option {
	return func(c *Config) { c.MinLatency, c.MaxLatency = min, max }
}

// WithStorage selects the storage engine factory each site is built from
// (for example disk.Factory for the heap-page engine). nil keeps the
// default in-memory force-at-commit engine.
func WithStorage(factory storage.Factory) Option {
	return func(c *Config) { c.Storage = factory }
}
