// Package workload generates what the harness puts on a cluster: item
// placements, and transaction specs drawn from configurable access
// distributions. Driving them against a cluster is internal/load's job.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"siterecovery/internal/proto"
)

// ItemName formats the i-th generated item.
func ItemName(i int) proto.Item {
	return proto.Item(fmt.Sprintf("item-%04d", i))
}

// UniformPlacement lays out numItems items over sites 1..numSites with the
// given replication degree, spreading replicas deterministically from the
// seed.
func UniformPlacement(numItems, degree, numSites int, seed int64) map[proto.Item][]proto.SiteID {
	if degree > numSites {
		degree = numSites
	}
	rng := rand.New(rand.NewSource(seed))
	placement := make(map[proto.Item][]proto.SiteID, numItems)
	for i := range numItems {
		perm := rng.Perm(numSites)
		replicas := make([]proto.SiteID, 0, degree)
		for _, p := range perm[:degree] {
			replicas = append(replicas, proto.SiteID(p+1))
		}
		sort.Slice(replicas, func(a, b int) bool { return replicas[a] < replicas[b] })
		placement[ItemName(i)] = replicas
	}
	return placement
}

// FullPlacement replicates every item at every site.
func FullPlacement(numItems, numSites int) map[proto.Item][]proto.SiteID {
	sites := make([]proto.SiteID, 0, numSites)
	for i := 1; i <= numSites; i++ {
		sites = append(sites, proto.SiteID(i))
	}
	placement := make(map[proto.Item][]proto.SiteID, numItems)
	for i := range numItems {
		placement[ItemName(i)] = append([]proto.SiteID(nil), sites...)
	}
	return placement
}

// Dist selects the item-access distribution.
type Dist int

// Distributions.
const (
	// Uniform picks items uniformly.
	Uniform Dist = iota + 1
	// Zipf picks items with a Zipf(1.1) skew.
	Zipf
	// Hotspot sends 80% of accesses to the first 20% of the items.
	Hotspot
)

// Spec is one generated transaction: read the Reads, then write the Writes
// (values supplied by the driver).
type Spec struct {
	Reads  []proto.Item
	Writes []proto.Item
}

// GeneratorConfig tunes a Generator.
type GeneratorConfig struct {
	Items []proto.Item
	Dist  Dist
	// ReadFraction is the probability that an operation is a read.
	// Defaults to 0.5.
	ReadFraction float64
	// OpsPerTxn is the number of logical operations per transaction.
	// Defaults to 4.
	OpsPerTxn int
	Seed      int64
}

// Generator produces transaction specs deterministically from its seed.
// It is not safe for concurrent use; give each client its own.
type Generator struct {
	cfg  GeneratorConfig
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewGenerator returns a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if len(cfg.Items) == 0 {
		return nil, fmt.Errorf("generator needs items")
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.5
	}
	if cfg.OpsPerTxn == 0 {
		cfg.OpsPerTxn = 4
	}
	if cfg.Dist == 0 {
		cfg.Dist = Uniform
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	g := &Generator{cfg: cfg, rng: rng}
	if cfg.Dist == Zipf {
		g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(cfg.Items)-1))
	}
	return g, nil
}

func (g *Generator) pick() proto.Item {
	n := len(g.cfg.Items)
	switch g.cfg.Dist {
	case Zipf:
		return g.cfg.Items[int(g.zipf.Uint64())]
	case Hotspot:
		hot := n / 5
		if hot == 0 {
			hot = 1
		}
		if g.rng.Float64() < 0.8 {
			return g.cfg.Items[g.rng.Intn(hot)]
		}
		return g.cfg.Items[hot+g.rng.Intn(n-hot)]
	default:
		return g.cfg.Items[g.rng.Intn(n)]
	}
}

// Next produces the next transaction spec. Items within one transaction are
// distinct and sorted, which avoids trivial self-deadlocks and bounds lock
// ordering conflicts.
func (g *Generator) Next() Spec {
	seen := make(map[proto.Item]bool, g.cfg.OpsPerTxn)
	var spec Spec
	for len(seen) < g.cfg.OpsPerTxn {
		item := g.pick()
		if seen[item] {
			continue
		}
		seen[item] = true
		if g.rng.Float64() < g.cfg.ReadFraction {
			spec.Reads = append(spec.Reads, item)
		} else {
			spec.Writes = append(spec.Writes, item)
		}
	}
	sort.Slice(spec.Reads, func(i, j int) bool { return spec.Reads[i] < spec.Reads[j] })
	sort.Slice(spec.Writes, func(i, j int) bool { return spec.Writes[i] < spec.Writes[j] })
	return spec
}

// Value produces a pseudo-random value to write.
func (g *Generator) Value() proto.Value {
	return proto.Value(g.rng.Int63n(1 << 30))
}
