package chaos

import (
	"fmt"
	"math/rand"

	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

// GenConfig shapes schedule generation.
type GenConfig struct {
	// Seed drives every random choice. The same seed and config always
	// generate the same schedule.
	Seed int64
	// Steps is the plan length. Defaults to 40.
	Steps int
	// Sites, Items, Degree describe the cluster. Default 4 sites, 12
	// items, 2-way replication.
	Sites  int
	Items  int
	Degree int
	// Identify names the §5 identification strategy ("markall",
	// "versiondiff", "faillock", "missinglist"). Defaults to markall.
	Identify string
	// Mix weighs the step kinds. The zero Mix is the netsim mix.
	Mix Mix
}

func (g GenConfig) withDefaults() GenConfig {
	if g.Steps == 0 {
		g.Steps = 40
	}
	if g.Sites == 0 {
		g.Sites = 4
	}
	if g.Items == 0 {
		g.Items = 12
	}
	if g.Degree == 0 {
		g.Degree = 2
	}
	if g.Identify == "" {
		g.Identify = "markall"
	}
	if g.Mix.Rolls == nil {
		g.Mix = netsimMix
	}
	return g
}

// Mix is a generator's step-kind weights. Each step draws one roll in
// [0,1) and takes the first Roll whose Below exceeds it, so Below values
// are cumulative and ascending; a roll past the last one is a user
// transaction. ReadFraction is the probability a transaction operation is
// a read.
type Mix struct {
	Rolls        []Roll
	ReadFraction float64
}

// Roll is one step kind's cumulative threshold in a Mix.
type Roll struct {
	Below float64
	Kind  StepKind
}

// netsimMix is the zero Mix: the in-process simulator's vocabulary, with
// recovery slightly favored over crash so runs end mostly up.
var netsimMix = Mix{
	Rolls: []Roll{
		{0.12, StepCrash},
		{0.26, StepRecover},
		{0.31, StepPartition},
		{0.36, StepHeal},
		{0.42, StepLoss},
		{0.45, StepStall},
		{0.48, StepResume},
	},
	ReadFraction: 0.5,
}

func (m Mix) kind(roll float64) StepKind {
	for _, r := range m.Rolls {
		if roll < r.Below {
			return r.Kind
		}
	}
	return StepTxn
}

// lossLevels are the burst intensities a StepLoss picks from; 0 ends a
// burst. Kept below the retry budget's tolerance so runs terminate.
var lossLevels = []float64{0, 0.05, 0.15, 0.3}

// slowLevels are the link delays a StepSlow picks from, in milliseconds;
// 0 ends the slowdown. Kept below the transport call timeout so slowed
// links degrade rather than sever.
var slowLevels = []float64{0, 20, 60, 120}

// Generate draws a fault plan from rand.Rand(seed). Generation tracks a
// model of the cluster (which sites are up, slowed or stalled, whether a
// partition or loss burst is active) so the plan is mostly well-formed:
// it never takes the last up site down, only recovers down sites, and only
// heals or resumes what it broke. The runner still tolerates ill-formed
// steps (shrinking creates them) by skipping them deterministically.
func Generate(cfg GenConfig) Schedule {
	cfg = cfg.withDefaults()
	items := make([]proto.Item, cfg.Items)
	for i := range items {
		items[i] = workload.ItemName(i)
	}
	txns, err := workload.NewGenerator(workload.GeneratorConfig{
		Items:        items,
		Seed:         cfg.Seed,
		OpsPerTxn:    3,
		ReadFraction: cfg.Mix.ReadFraction,
		Dist:         workload.Uniform,
	})
	if err != nil {
		panic(fmt.Sprintf("chaos generator: %v", err)) // only fires on empty Items
	}
	m := &model{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		txns:    txns,
		up:      map[proto.SiteID]bool{},
		slowed:  map[proto.SiteID]bool{},
		stalled: map[proto.SiteID]bool{},
	}
	for i := 1; i <= cfg.Sites; i++ {
		m.sites = append(m.sites, proto.SiteID(i))
		m.up[proto.SiteID(i)] = true
	}

	sched := Schedule{
		Version:  ScheduleVersion,
		Seed:     cfg.Seed,
		Sites:    cfg.Sites,
		Items:    cfg.Items,
		Degree:   cfg.Degree,
		Identify: cfg.Identify,
	}
	for len(sched.Steps) < cfg.Steps {
		if step, ok := m.step(cfg.Mix.kind(m.rng.Float64())); ok {
			sched.Steps = append(sched.Steps, step)
		}
	}
	return sched
}

// model is the cluster as the generator believes the plan so far leaves it.
type model struct {
	rng                 *rand.Rand
	txns                *workload.Generator
	sites               []proto.SiteID
	up, slowed, stalled map[proto.SiteID]bool
	partitioned, lossy  bool
}

// where lists the sites whose flag in set equals want, in site order.
func (m *model) where(set map[proto.SiteID]bool, want bool) []proto.SiteID {
	var out []proto.SiteID
	for _, s := range m.sites {
		if set[s] == want {
			out = append(out, s)
		}
	}
	return out
}

func (m *model) pick(sites []proto.SiteID) proto.SiteID { return sites[m.rng.Intn(len(sites))] }

func (m *model) level(levels []float64) float64 { return levels[m.rng.Intn(len(levels))] }

// step draws one step of kind, or reports false when it would be a no-op
// or ill-formed in the current model (the roll is then spent).
func (m *model) step(kind StepKind) (Step, bool) {
	switch kind {
	case StepCrash, StepKill:
		ups := m.where(m.up, true)
		if len(ups) < 2 {
			return Step{}, false // never take the last site down
		}
		victim := m.pick(ups)
		m.up[victim] = false
		return Step{Kind: kind, Site: victim}, true
	case StepRecover:
		downs := m.where(m.up, false)
		if len(downs) == 0 {
			return Step{}, false
		}
		site := m.pick(downs)
		m.up[site] = true
		return Step{Kind: StepRecover, Site: site}, true
	case StepPartition: // two random nonempty groups
		if m.partitioned || len(m.sites) < 2 {
			return Step{}, false
		}
		cut := 1 + m.rng.Intn(len(m.sites)-1)
		var shuffled []proto.SiteID
		for _, p := range m.rng.Perm(len(m.sites)) {
			shuffled = append(shuffled, m.sites[p])
		}
		m.partitioned = true
		return Step{Kind: StepPartition, Groups: [][]proto.SiteID{shuffled[:cut], shuffled[cut:]}}, true
	case StepHeal:
		if !m.partitioned {
			return Step{}, false
		}
		m.partitioned = false
		return Step{Kind: StepHeal}, true
	case StepLoss: // burst start, change or stop
		level := m.level(lossLevels)
		if level == 0 && !m.lossy {
			return Step{}, false
		}
		m.lossy = level > 0
		return Step{Kind: StepLoss, Loss: level}, true
	case StepSlow: // a site's links slowed, or restored
		site := m.pick(m.sites)
		level := m.level(slowLevels)
		if (level > 0) == m.slowed[site] {
			return Step{}, false
		}
		m.slowed[site] = level > 0
		return Step{Kind: StepSlow, Site: site, DelayMS: int64(level)}, true
	case StepStall:
		site := m.pick(m.sites)
		if m.stalled[site] {
			return Step{}, false
		}
		m.stalled[site] = true
		return Step{Kind: StepStall, Site: site}, true
	case StepResume:
		wedged := m.where(m.stalled, true)
		if len(wedged) == 0 {
			return Step{}, false
		}
		site := m.pick(wedged)
		m.stalled[site] = false
		return Step{Kind: StepResume, Site: site}, true
	default: // StepTxn, at a random up site
		ups := m.where(m.up, true)
		if len(ups) == 0 {
			return Step{}, false
		}
		spec := m.txns.Next()
		step := Step{Kind: StepTxn, Site: m.pick(ups), Reads: spec.Reads, Writes: spec.Writes}
		for range spec.Writes {
			step.Values = append(step.Values, m.txns.Value())
		}
		return step, true
	}
}
