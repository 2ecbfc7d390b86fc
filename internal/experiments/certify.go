package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/core"
	"siterecovery/internal/history"
	"siterecovery/internal/load"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// anomalyOutcome reports how one run of the §1 interleaving ended.
type anomalyOutcome struct {
	stgAcyclic bool
	bruteOneSR bool
}

// runAnomalyScenario replays the paper's introductory example under the
// given profile: Ta reads X then writes Y, Tb reads Y then writes X, both
// reading at site 1, which crashes between their reads and writes.
func runAnomalyScenario(profile replication.Profile, seed int64) (anomalyOutcome, error) {
	c, err := core.New(core.Config{
		Sites: 4,
		Placement: map[proto.Item][]proto.SiteID{
			"x": {1, 2},
			"y": {1, 2},
		},
		Profile: profile,
		Seed:    seed,
	})
	if err != nil {
		return anomalyOutcome{}, err
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	readsDone := make(chan struct{}, 2)
	crashDone := make(chan struct{})
	var mu sync.Mutex
	attempts := make(map[proto.SiteID]int)
	body := func(self proto.SiteID, readItem, writeItem proto.Item) func(context.Context, *txn.Tx) error {
		return func(ctx context.Context, tx *txn.Tx) error {
			mu.Lock()
			attempts[self]++
			first := attempts[self] == 1
			mu.Unlock()
			if _, err := tx.Read(ctx, readItem); err != nil {
				return err
			}
			if first {
				readsDone <- struct{}{}
				<-crashDone
			}
			return tx.Write(ctx, writeItem, proto.Value(self)*100)
		}
	}

	errs := make(chan error, 2)
	go func() { errs <- c.Exec(ctx, 3, body(3, "x", "y")) }()
	go func() { errs <- c.Exec(ctx, 4, body(4, "y", "x")) }()
	<-readsDone
	<-readsDone
	c.Crash(1)
	close(crashDone)
	for range 2 {
		if err := <-errs; err != nil {
			return anomalyOutcome{}, fmt.Errorf("scenario txn: %w", err)
		}
	}

	h := c.History()
	stgOK, _ := h.CertifyOneSR(history.DomainDB)
	res, err := h.OneSRBruteForce(history.DomainDB, false)
	if err != nil {
		return anomalyOutcome{}, err
	}
	return anomalyOutcome{stgAcyclic: stgOK, bruteOneSR: res.OneSR}, nil
}

// RunE7 certifies executions: the §1 interleaving violates
// one-serializability under the naive scheme in every run, while the
// session protocol keeps the same interleaving (and randomized
// crash/recover workloads) 1-SR — Theorem 3 made executable.
func RunE7(scale Scale) (*Table, error) {
	anomalyRuns, randomRuns := 3, 3
	if scale == Full {
		anomalyRuns, randomRuns = 10, fullRandomizedRuns
	}
	table := &Table{
		ID:      "E7",
		Title:   "One-serializability certification (revised 1-STG of §4.1 + exact brute force)",
		Columns: []string{"workload", "strategy", "runs", "one_sr", "violations"},
	}

	for _, p := range []replication.Profile{replication.Naive, replication.ROWAA} {
		oneSR, violations := 0, 0
		for i := 0; i < anomalyRuns; i++ {
			out, err := runAnomalyScenario(p, int64(i+1))
			if err != nil {
				return nil, fmt.Errorf("E7 anomaly %s run %d: %w", p.Name, i, err)
			}
			if out.bruteOneSR {
				oneSR++
			} else {
				violations++
			}
			// Sanity: the sufficient condition must never contradict the
			// exact decision in the 1-SR direction.
			if out.stgAcyclic && !out.bruteOneSR {
				return nil, fmt.Errorf("E7: 1-STG certified a non-1-SR history")
			}
		}
		table.AddRow("§1 interleaving", p.Name,
			fmt.Sprintf("%d", anomalyRuns),
			fmt.Sprintf("%d", oneSR),
			fmt.Sprintf("%d", violations))
	}

	// Randomized concurrent crash/recover workloads under the paper
	// protocol: every run must pass 1-STG certification. -scale full is the
	// fuzz command; a violation fails the experiment with its seed.
	for i := 0; i < randomRuns; i++ {
		seed := randomizedSeed(i)
		if err := randomizedCertifiedRun(seed); err != nil {
			return nil, fmt.Errorf("E7 randomized run %d (seed %d): %w", i, seed, err)
		}
	}
	table.AddRow("randomized crash/recover", replication.ROWAA.Name,
		fmt.Sprintf("%d", randomRuns),
		fmt.Sprintf("%d", randomRuns),
		"0")
	return table, nil
}

// fullRandomizedRuns is how many randomized runs E7 certifies at Full scale.
const fullRandomizedRuns = 24

func randomizedSeed(run int) int64 { return int64(run + 100) }

// randomizedSites is the cluster size of a randomized run: site 1 is home to
// the clients and never fails, the victim is one of the others.
const randomizedSites = 4

// randomizedParams is what one randomized run derives from its seed.
type randomizedParams struct {
	identify recovery.Identify
	victim   proto.SiteID
	cycles   int
	ops      int
	dist     workload.Dist
}

func (p randomizedParams) String() string {
	return fmt.Sprintf("identify=%s victim=%v cycles=%d ops=%d dist=%d", p.identify, p.victim, p.cycles, p.ops, p.dist)
}

func drawRandomized(seed int64) randomizedParams {
	rng := rand.New(rand.NewSource(seed))
	return randomizedParams{
		identify: recovery.IdentifyMarkAll + recovery.Identify(rng.Intn(4)),
		victim:   proto.SiteID(rng.Intn(randomizedSites-1) + 2),
		cycles:   rng.Intn(2) + 1,
		ops:      rng.Intn(3) + 1,
		dist:     workload.Uniform + workload.Dist(rng.Intn(3)),
	}
}

// randomizedCertifiedRun drives a cluster with concurrent clients through
// the seed's crash/recover cycles, then certifies the full history.
func randomizedCertifiedRun(seed int64) error {
	p := drawRandomized(seed)
	c, err := core.New(core.Config{
		Sites:     randomizedSites,
		Placement: workload.UniformPlacement(12, 2, randomizedSites, seed),
		Identify:  p.identify,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const txns = 240
	targets, ctl := load.ClusterTargets(c, 1)
	if _, err := load.Run(ctx, load.Config{
		Targets:     targets,
		Txns:        txns,
		Concurrency: 3,
		Seed:        seed,
		Generator: workload.GeneratorConfig{
			Items: c.Catalog().Items(), OpsPerTxn: p.ops, ReadFraction: 0.5, Dist: p.dist,
		},
		Faults:     load.CrashRecoverCycles(p.victim, p.cycles, txns),
		Controller: ctl,
	}); err != nil {
		return err
	}
	if err := c.WaitCurrent(ctx, p.victim); err != nil {
		return fmt.Errorf("%s: %w", p, err)
	}
	if fails := chaos.Check(c, chaos.Info{}, []chaos.Invariant{chaos.OneSR(), chaos.ConflictAcyclic()}); len(fails) > 0 {
		return fmt.Errorf("%s: %s", p, fails[0])
	}
	return nil
}
