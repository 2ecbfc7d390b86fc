// Package load is the one way harness code puts traffic and faults on a
// cluster: load.Run generates seeded transactions, hands them to executors,
// fires a crash/recover schedule keyed to the arrival sequence, and counts
// what committed. TargetQPS picks the shape. Paced (> 0), arrivals follow a
// Poisson process whether or not earlier ones have finished (open loop), so
// queueing delay under saturation shows up in the measured latency instead
// of silently throttling the offered load. Unpaced, Concurrency closed-loop
// clients each issue the next transaction when their last one settles, and
// latency is service time. The driver is executor-agnostic — the same run
// drives an in-process netsim cluster, an in-process TCP node, or a
// multi-process srnode cluster over its HTTP control surface (see
// adapters.go).
package load

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/metrics"
	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

// TxnRequest is one fully materialized transaction: read every item in
// Reads, then apply every Write (Apply is that body). The driver generates
// these, executors run them, and the JSON form is the body of srnode's
// POST /txn control endpoint.
type TxnRequest struct {
	Reads  []proto.Item `json:"reads,omitempty"`
	Writes []TxnWrite   `json:"writes,omitempty"`
}

// TxnWrite is one write operation of a TxnRequest.
type TxnWrite struct {
	Item  proto.Item  `json:"item"`
	Value proto.Value `json:"value"`
}

// Txn and Write are the in-process names for the same two types.
type (
	Txn   = TxnRequest
	Write = TxnWrite
)

// Executor runs one transaction to commit or failure. Implementations wrap
// a netsim cluster site, a TCP node, or an srnode control endpoint.
type Executor func(ctx context.Context, t Txn) error

// FaultKind is a mid-run fault action.
type FaultKind int

// Fault kinds.
const (
	FaultCrash FaultKind = iota + 1
	FaultRecover
)

// Fault schedules one crash or recover against the cluster under load,
// keyed to the arrival sequence (not wall time) so a schedule means the
// same thing at any QPS.
type Fault struct {
	// AfterArrival fires the fault just before the arrival with this
	// 0-based index is dispatched.
	AfterArrival int
	Kind         FaultKind
	Site         proto.SiteID
}

// CrashRecoverCycles schedules cycles crash/recover rounds of site over a
// run of txns arrivals: the run is cut into 2*cycles+1 equal spans and the
// site is down for every second one.
func CrashRecoverCycles(site proto.SiteID, cycles, txns int) []Fault {
	span := txns / (2*cycles + 1)
	faults := make([]Fault, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		faults = append(faults,
			Fault{AfterArrival: (2*i + 1) * span, Kind: FaultCrash, Site: site},
			Fault{AfterArrival: (2*i + 2) * span, Kind: FaultRecover, Site: site})
	}
	return faults
}

// Controller applies faults to whatever cluster the executors target.
type Controller interface {
	Crash(site proto.SiteID)
	Recover(ctx context.Context, site proto.SiteID) error
}

// Config tunes one run.
type Config struct {
	// Targets are the per-coordinator executors; arrivals round-robin
	// over them. Required.
	Targets []Executor
	// Generator tunes the transaction mix. Its Seed is overridden with
	// Config.Seed so one knob reproduces the whole run.
	Generator workload.GeneratorConfig
	// TargetQPS paces arrivals with Poisson inter-arrival gaps drawn
	// from the seeded RNG (open loop). <= 0 disables pacing: an arrival
	// happens when one of Concurrency clients is free (closed loop — the
	// throughput-ceiling profile).
	TargetQPS float64
	// Txns is the total number of arrivals. <= 0 runs until the context
	// ends, which must then be able to.
	Txns int
	// Concurrency caps in-flight transactions. Concurrency 1 executes
	// each arrival inline before the next is generated, which makes a
	// netsim run fully deterministic for a fixed Seed. Defaults to 16.
	Concurrency int
	// Timeout bounds each transaction. Defaults to 30s.
	Timeout time.Duration
	// Seed drives the arrival process and the workload generator.
	Seed int64
	// Faults optionally crash/recover sites mid-run; requires Controller.
	Faults     []Fault
	Controller Controller
}

// WindowStats counts the arrivals dispatched while at least one scheduled
// fault was outstanding (between a crash and the completion of its
// recover), and how they fared.
type WindowStats struct {
	Arrivals  uint64
	Committed uint64
	Failed    uint64
}

// Result aggregates one run. An arrival still executing when the run's
// context ended is counted in Arrivals only: the cluster neither committed
// nor refused it, the run stopped looking.
type Result struct {
	Arrivals  uint64
	Committed uint64
	Failed    uint64
	Elapsed   time.Duration
	// Latency holds commit latencies measured from the arrival. A paced
	// arrival waits for a concurrency slot after it arrives, so under
	// saturation its latency includes that queueing; an unpaced arrival is
	// the slot becoming free, so its latency is the executor's service time.
	Latency *metrics.Histogram
	// SpecDigest fingerprints the generated transaction stream (items,
	// order, and values). Two runs with the same Config produce the same
	// digest — the determinism handle the acceptance tests check.
	SpecDigest string
	// FaultWindow is populated when Faults were configured.
	FaultWindow WindowStats
}

// Throughput reports committed transactions per second of wall time.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Availability reports the committed fraction of settled arrivals.
func (r Result) Availability() float64 {
	if r.Committed+r.Failed == 0 {
		return 1
	}
	return float64(r.Committed) / float64(r.Committed+r.Failed)
}

func (c *Config) validate(ctx context.Context) error {
	if len(c.Targets) == 0 {
		return fmt.Errorf("load: config needs at least one target executor")
	}
	if c.Txns <= 0 && ctx.Done() == nil {
		return fmt.Errorf("load: config needs Txns > 0 or a context that ends")
	}
	if len(c.Faults) > 0 && c.Controller == nil {
		return fmt.Errorf("load: faults scheduled without a controller")
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return nil
}

// Run drives the targets with cfg.Txns arrivals, or until the context ends,
// and returns the aggregate result. Transactions in flight when the context
// ends are waited for and counted as neither committed nor failed.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.validate(ctx); err != nil {
		return Result{}, err
	}
	gcfg := cfg.Generator
	gcfg.Seed = cfg.Seed
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		return Result{}, err
	}
	// A distinct stream from the generator's: the same seed must not make
	// arrival gaps correlate with item choices.
	arrivalRNG := rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))

	faults := append([]Fault(nil), cfg.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].AfterArrival < faults[j].AfterArrival })

	var (
		committed, failed     atomic.Uint64
		fwArr, fwComm, fwFail atomic.Uint64
		hist                  metrics.Histogram
		faultDepth            atomic.Int64
		wg, recoveries        sync.WaitGroup
	)
	digest := fnv.New64a()
	sem := make(chan struct{}, cfg.Concurrency)

	paced, inline := cfg.TargetQPS > 0, cfg.Concurrency == 1

	fire := func(f Fault) {
		switch f.Kind {
		case FaultCrash:
			faultDepth.Add(1)
			cfg.Controller.Crash(f.Site)
		case FaultRecover:
			recoveries.Add(1)
			recoverSite := func() {
				defer recoveries.Done()
				_ = cfg.Controller.Recover(ctx, f.Site)
				faultDepth.Add(-1)
			}
			if inline {
				recoverSite() // keeps the deterministic profile deterministic
			} else {
				go recoverSite()
			}
		}
	}

	start := time.Now()
	next := start
	fi := 0
	arrivals := 0
	for i := 0; (cfg.Txns <= 0 || i < cfg.Txns) && ctx.Err() == nil; i++ {
		for fi < len(faults) && faults[fi].AfterArrival <= i {
			fire(faults[fi])
			fi++
		}
		if paced {
			gap := time.Duration(arrivalRNG.ExpFloat64() / cfg.TargetQPS * float64(time.Second))
			next = next.Add(gap)
			if wait := time.Until(next); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
		} else if !inline {
			// Closed loop: the slot is taken before the arrival is generated
			// and stamped, so a transaction's latency never includes the wait
			// for a free client and no goroutine exists for a transaction
			// that cannot run yet.
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break // the run ended while this arrival was waiting to happen
		}
		t := materialize(gen, digest)
		target := cfg.Targets[i%len(cfg.Targets)]
		faulted := faultDepth.Load() > 0
		if faulted {
			fwArr.Add(1)
		}
		arrivals++
		dispatched := time.Now()
		exec := func() {
			tctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			err := target(tctx, t)
			cancel()
			switch {
			case err == nil:
				committed.Add(1)
				hist.Observe(time.Since(dispatched))
				if faulted {
					fwComm.Add(1)
				}
			case ctx.Err() != nil:
				// Cut off by the end of the run, not refused by the cluster.
			default:
				failed.Add(1)
				if faulted {
					fwFail.Add(1)
				}
			}
		}
		if inline {
			exec()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if paced {
				sem <- struct{}{}
			}
			defer func() { <-sem }()
			exec()
		}()
	}
	// Faults scheduled at or past the end of the arrival stream (e.g. a
	// recover after the last arrival) still fire.
	for ; fi < len(faults) && ctx.Err() == nil; fi++ {
		fire(faults[fi])
	}
	wg.Wait()
	recoveries.Wait()

	res := Result{
		Arrivals:   uint64(arrivals),
		Committed:  committed.Load(),
		Failed:     failed.Load(),
		Elapsed:    time.Since(start),
		Latency:    &hist,
		SpecDigest: fmt.Sprintf("%016x", digest.Sum64()),
	}
	if len(faults) > 0 {
		res.FaultWindow = WindowStats{
			Arrivals:  fwArr.Load(),
			Committed: fwComm.Load(),
			Failed:    fwFail.Load(),
		}
	}
	return res, nil
}

// materialize turns the generator's next spec into a concrete transaction
// and folds its shape and values into the run digest.
func materialize(gen *workload.Generator, digest interface{ Write([]byte) (int, error) }) Txn {
	spec := gen.Next()
	t := Txn{Reads: spec.Reads, Writes: make([]Write, 0, len(spec.Writes))}
	for _, item := range spec.Reads {
		digest.Write([]byte("r"))
		digest.Write([]byte(item))
	}
	var buf [8]byte
	for _, item := range spec.Writes {
		v := gen.Value()
		t.Writes = append(t.Writes, Write{Item: item, Value: v})
		digest.Write([]byte("w"))
		digest.Write([]byte(item))
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		digest.Write(buf[:])
	}
	return t
}
