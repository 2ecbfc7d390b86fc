package proc_test

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// TestProcRefusesUsedDir: a directory holding an earlier run's statedir or
// exports is refused by name before any srnode starts (the binary here does
// not exist), instead of hanging in recovery over the stale state.
func TestProcRefusesUsedDir(t *testing.T) {
	for _, leftover := range []string{"state1", "site2.gen1.jsonl"} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, leftover), 0o755); err != nil {
			t.Fatal(err)
		}
		_, err := proc.Run(context.Background(), proc.Generate(proc.GenConfig{Seed: 1, Steps: 3}),
			proc.Options{Bin: filepath.Join(dir, "no-such-srnode"), Dir: dir})
		if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, leftover)) {
			t.Fatalf("Run over %s: err = %v, want a refusal naming it", leftover, err)
		}
	}
}

// TestProcScheduleDeterminism pins the reproducibility contract srchaos
// advertises: the same seed and sizing always generate the same schedule,
// byte for byte, so a CI failure replays from its logged seed alone. This
// test spawns no processes and always runs.
func TestProcScheduleDeterminism(t *testing.T) {
	cfg := proc.GenConfig{Seed: 42, Steps: 30, Sites: 3, Items: 8}
	a, b := proc.Generate(cfg), proc.Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different schedules")
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("same seed generated different schedule JSON")
	}
	if c := proc.Generate(proc.GenConfig{Seed: 43, Steps: 30, Sites: 3, Items: 8}); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical schedules")
	}

	// The process cluster is fully replicated; the header must say so.
	if a.Degree != a.Sites {
		t.Fatalf("Degree = %d, want Sites = %d", a.Degree, a.Sites)
	}

	// The proc vocabulary actually appears: across a handful of seeds the
	// generator emits both proc-only kinds (seeded, so this cannot flake).
	kinds := map[chaos.StepKind]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		for _, s := range proc.Generate(proc.GenConfig{Seed: seed, Steps: 40}).Steps {
			kinds[s.Kind] = true
		}
	}
	for _, want := range []chaos.StepKind{chaos.StepKill, chaos.StepSlow, chaos.StepCrash, chaos.StepTxn} {
		if !kinds[want] {
			t.Errorf("no %q step generated across seeds 1..10", want)
		}
	}

	// Schedules survive the JSON round-trip shrink reproducers rely on.
	var back chaos.Schedule
	if err := json.Unmarshal(aj, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("schedule did not survive JSON round-trip")
	}
}

// TestProcSigkillMidCommit runs the scripted scenario the /crash model
// cannot express: SIGKILL the coordinator while its 2PC is in flight
// through a slowed link, respawn it over its statedir, and require the full
// trace-invariant suite plus convergence after quiesce. The kill-cut marker
// machinery is what makes the truncated incarnation-0 export acceptable.
func TestProcSigkillMidCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning chaos scenario in -short mode")
	}
	sched := scenarioSchedule([]chaos.Step{
		{Kind: chaos.StepSlow, Site: 2, DelayMS: 120},
		{Kind: chaos.StepTxn, Site: 1, Writes: w("item-0000", "item-0001"), Values: v(11, 12)},
		{Kind: chaos.StepKill, Site: 1},
		{Kind: chaos.StepSlow, Site: 2, DelayMS: 0},
		{Kind: chaos.StepTxn, Site: 2, Writes: w("item-0002"), Values: v(13)},
		{Kind: chaos.StepRecover, Site: 1},
		{Kind: chaos.StepTxn, Site: 3, Writes: w("item-0003"), Values: v(14)},
	})
	res := runScenario(t, sched, nil)
	if res.Info.Crashes == 0 {
		t.Error("scenario never killed a site")
	}
	sawKillCut := false
	for _, e := range res.Merged.Events {
		if e.Type == obs.EvSiteCrash && e.Detail == obs.DetailSigkill {
			sawKillCut = true
		}
	}
	if !sawKillCut {
		t.Error("merged trace has no kill-cut marker despite a SIGKILL")
	}
}

// TestProcPartitionDuringClaim crashes a site, partitions the cluster so
// the recovering site can reach only part of it, and runs the type-1 claim
// inside the partition. The claim must first get the unreachable side
// type-2 excluded; quiesce then repairs that exclusion (crash + re-recover,
// as §3.3 demands) and the whole history must satisfy the trace suite.
func TestProcPartitionDuringClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning chaos scenario in -short mode")
	}
	sched := scenarioSchedule([]chaos.Step{
		{Kind: chaos.StepTxn, Site: 1, Writes: w("item-0000"), Values: v(21)},
		{Kind: chaos.StepCrash, Site: 3},
		{Kind: chaos.StepPartition, Groups: [][]proto.SiteID{{1, 3}, {2}}},
		{Kind: chaos.StepRecover, Site: 3},
		{Kind: chaos.StepHeal},
		{Kind: chaos.StepTxn, Site: 3, Writes: w("item-0001"), Values: v(22)},
	})
	res := runScenario(t, sched, nil)
	if res.Info.Recoveries == 0 {
		t.Error("scenario never recovered a site")
	}
}

// TestProcInjectedBugCaughtAndShrinks is the oracle's proof of work: run a
// noisy schedule against srnode with SRNODE_BUG=reuse-session (recovery
// claims reuse the current session number instead of advancing it — a
// direct violation of the §3.1 uniqueness rule), require the trace suite to
// catch it, and require ddmin to shrink the schedule to at most half its
// length. Gated behind SRCHAOS_E2E=1: it replays the cluster once per
// shrink attempt.
func TestProcInjectedBugCaughtAndShrinks(t *testing.T) {
	if os.Getenv("SRCHAOS_E2E") != "1" {
		t.Skip("set SRCHAOS_E2E=1 to run the injected-bug shrink test")
	}
	if testing.Short() {
		t.Skip("skipping process-spawning chaos scenario in -short mode")
	}
	sched := scenarioSchedule([]chaos.Step{
		{Kind: chaos.StepTxn, Site: 1, Writes: w("item-0000"), Values: v(5)},
		{Kind: chaos.StepSlow, Site: 3, DelayMS: 20},
		{Kind: chaos.StepCrash, Site: 2},
		{Kind: chaos.StepTxn, Site: 1, Writes: w("item-0002"), Values: v(9)},
		{Kind: chaos.StepRecover, Site: 2},
		{Kind: chaos.StepStall, Site: 3},
		{Kind: chaos.StepResume, Site: 3},
		{Kind: chaos.StepCrash, Site: 2},
		{Kind: chaos.StepSlow, Site: 3, DelayMS: 0},
		{Kind: chaos.StepTxn, Site: 3, Reads: w("item-0001")},
		{Kind: chaos.StepRecover, Site: 2},
		{Kind: chaos.StepTxn, Site: 1, Writes: w("item-0003"), Values: v(7)},
	})
	env := []string{"SRNODE_BUG=reuse-session"}

	opts := scenarioOptions(t, env)
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	res, err := proc.Run(ctx, sched, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var bug *chaos.Failure
	for i := range res.Failures {
		if res.Failures[i].Invariant == "trace-session-monotone" {
			bug = &res.Failures[i]
		}
	}
	if bug == nil {
		t.Fatalf("injected reuse-session bug not caught; failures: %v", res.Failures)
	}

	minimal, err := proc.Shrink(ctx, sched, *bug, opts, func(msg string) { t.Log(msg) })
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if len(minimal.Steps) > len(sched.Steps)/2 {
		t.Fatalf("shrunk to %d steps, want <= %d", len(minimal.Steps), len(sched.Steps)/2)
	}
	t.Logf("shrunk %d -> %d steps", len(sched.Steps), len(minimal.Steps))
}

// scenarioSchedule wraps steps in the standard 3-site fully replicated
// header the scenario tests share.
func scenarioSchedule(steps []chaos.Step) chaos.Schedule {
	return chaos.Schedule{
		Version:  chaos.ScheduleVersion,
		Seed:     1,
		Sites:    3,
		Items:    4,
		Degree:   3,
		Identify: "markall",
		Steps:    steps,
	}
}

func scenarioOptions(t *testing.T, env []string) proc.Options {
	t.Helper()
	opts := proc.Options{Bin: buildSrnode(t), Dir: t.TempDir(), Env: env}
	if testing.Verbose() {
		opts.Log = func(msg string) { t.Log(msg) }
	}
	return opts
}

// runScenario replays sched against a fresh cluster and fails the test on
// any invariant violation.
func runScenario(t *testing.T, sched chaos.Schedule, env []string) *proc.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := proc.Run(ctx, sched, scenarioOptions(t, env))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("violation: %v", f)
	}
	if res.Info.StepsRun == 0 {
		t.Error("no steps ran")
	}
	return res
}

func buildSrnode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "srnode")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "siterecovery/cmd/srnode")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build srnode: %v\n%s", err, out)
	}
	return bin
}

func w(items ...string) []proto.Item {
	out := make([]proto.Item, len(items))
	for i, s := range items {
		out[i] = proto.Item(s)
	}
	return out
}

func v(values ...int64) []proto.Value {
	out := make([]proto.Value, len(values))
	for i, n := range values {
		out[i] = proto.Value(n)
	}
	return out
}
