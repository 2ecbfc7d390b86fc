package chaos_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/core"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestScheduleRoundTrip(t *testing.T) {
	sched := chaos.Generate(chaos.GenConfig{Seed: 3, Steps: 25})
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := sched.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := chaos.ReadScheduleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, got) {
		t.Fatalf("round trip changed the schedule:\nwrote %+v\nread  %+v", sched, got)
	}
	if _, err := chaos.DecodeSchedule(bytes.NewBufferString(`{"version":99,"sites":1,"items":1,"degree":1}`)); err == nil {
		t.Fatal("unknown schedule version accepted")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := chaos.Generate(chaos.GenConfig{Seed: 11, Steps: 60})
	b := chaos.Generate(chaos.GenConfig{Seed: 11, Steps: 60})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different schedules")
	}
	c := chaos.Generate(chaos.GenConfig{Seed: 12, Steps: 60})
	if reflect.DeepEqual(a.Steps, c.Steps) {
		t.Fatal("different seeds generated identical step sequences")
	}
}

// TestGenerateGolden pins Generate's output for both mixes, byte for byte,
// so a seed logged by CI or a nightly soak replays the plan it names: every
// random draw must stay in the same order. The cases are srsim -chaos -seed
// 1 -steps 60's schedule file, srchaos -seed 7 -steps 40 -dry, and srchaos
// -seed 1 -steps 30 -dry (the proc-chaos CI seed).
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  chaos.GenConfig
		want string
	}{
		{chaos.GenConfig{Seed: 1, Steps: 60, Sites: 5, Items: 50, Degree: 3},
			"97fa18b45ce9ed8d36c5dff96f6b4ed5a626e50c4272898faf5535fdb133d00a"},
		{chaos.GenConfig{Seed: 7, Steps: 40, Sites: 3, Items: 8, Degree: 3, Mix: proc.Mix},
			"27de5b496143378a502024882e4de4fe6af85f46adae68f2405959faa7d3af3d"},
		{chaos.GenConfig{Seed: 1, Steps: 30, Sites: 3, Items: 8, Degree: 3, Mix: proc.Mix},
			"5fcbf04d83e9d0a41971e174b692f7fcb025c0f8a29a6fa72a73decf82567b5a"},
	} {
		var buf bytes.Buffer
		if err := chaos.Generate(tc.cfg).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("seed %d, %d steps, %d sites: sha256 %s, want %s", tc.cfg.Seed, tc.cfg.Steps, tc.cfg.Sites, got, tc.want)
		}
	}
}

// TestDecodeScheduleChecksTxnValues: every txn step carries one value per
// write, or the file is refused naming the step — a truncated or
// hand-edited reproducer must not panic the runner mid-replay.
func TestDecodeScheduleChecksTxnValues(t *testing.T) {
	const header = `{"version":1,"sites":3,"items":2,"degree":3,"identify":"markall","steps":[{"kind":"crash","site":2},`
	for _, tc := range []struct {
		name, step, wantErr string
	}{
		{"short values", `{"kind":"txn","site":1,"writes":["a","b"],"values":[1]}`, "step 1"},
		{"long values", `{"kind":"txn","site":1,"writes":["a"],"values":[1,2]}`, "step 1"},
		{"well-formed", `{"kind":"txn","site":1,"reads":["b"],"writes":["a"],"values":[1]}`, ""},
	} {
		_, err := chaos.DecodeSchedule(strings.NewReader(header + tc.step + "]}"))
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestReplayByteIdentical is the acceptance bar for the engine: running the
// same schedule twice must export byte-identical observability traces.
func TestReplayByteIdentical(t *testing.T) {
	sched := chaos.Generate(chaos.GenConfig{Seed: 7, Steps: 40})
	first, err := chaos.Run(testCtx(t), sched, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Info.Crashes == 0 {
		t.Fatalf("schedule exercised no crashes; info %+v", first.Info)
	}
	if len(first.Trace) == 0 {
		t.Fatal("run exported no events")
	}
	if first.Failed() {
		t.Fatalf("invariants violated: %v", first.Failures)
	}
	second, err := chaos.Run(testCtx(t), sched, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Trace, second.Trace) {
		t.Fatalf("replay diverged: run 1 exported %d bytes, run 2 %d bytes; traces differ",
			len(first.Trace), len(second.Trace))
	}
}

// TestSoak sweeps seeds across identification strategies; every run must
// satisfy the full invariant suite. -short trims the sweep.
func TestSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	steps := 50
	if testing.Short() {
		seeds = seeds[:2]
		steps = 30
	}
	for _, identify := range []string{"markall", "versiondiff"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", identify, seed), func(t *testing.T) {
				sched := chaos.Generate(chaos.GenConfig{Seed: seed, Steps: steps, Identify: identify})
				res, err := chaos.Run(testCtx(t), sched, chaos.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed() {
					// Leave a reproducer behind for debugging before
					// failing.
					path := filepath.Join(t.TempDir(), "repro.json")
					_ = sched.WriteFile(path)
					t.Fatalf("invariants violated (schedule at %s): %v\ninfo %+v", path, res.Failures, res.Info)
				}
				if res.Info.TxnCommitted == 0 {
					t.Fatalf("soak run committed nothing; info %+v", res.Info)
				}
			})
		}
	}
}

// noCrashes is the deliberately weakened invariant of the acceptance
// criteria: it "fails" whenever the run crashed anything, standing in for
// a real protocol bug the engine must catch and shrink.
func noCrashes() chaos.Invariant {
	return chaos.Invariant{Name: "no-crashes", Check: func(_ *core.Cluster, info chaos.Info) error {
		if info.Crashes > 0 {
			return fmt.Errorf("%d crashes occurred", info.Crashes)
		}
		return nil
	}}
}

// TestWeakenedInvariantIsCaughtAndShrunk plants a failing invariant, lets
// the engine catch it, and requires the shrinker to reduce the reproducer
// to at most 25% of the original schedule.
func TestWeakenedInvariantIsCaughtAndShrunk(t *testing.T) {
	ctx := testCtx(t)
	sched := chaos.Generate(chaos.GenConfig{Seed: 7, Steps: 40})
	opts := chaos.Options{Invariants: append(chaos.DefaultSuite(), noCrashes())}

	res, err := chaos.Run(ctx, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	var planted *chaos.Failure
	for i, f := range res.Failures {
		if f.Invariant == "no-crashes" {
			planted = &res.Failures[i]
		}
	}
	if planted == nil {
		t.Fatalf("weakened invariant not caught; failures %v, info %+v", res.Failures, res.Info)
	}

	minimized, err := chaos.Shrink(ctx, sched, opts, *planted, func(s string) { t.Log(s) })
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := len(minimized.Steps), len(sched.Steps)/4; got > limit {
		t.Fatalf("shrunk schedule has %d steps, want <= %d (of %d)", got, limit, len(sched.Steps))
	}
	// The minimized schedule must still reproduce the same failure.
	again, err := chaos.Run(ctx, minimized, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range again.Failures {
		if f.Invariant == "no-crashes" {
			found = true
		}
	}
	if !found {
		t.Fatalf("minimized schedule no longer fails; failures %v", again.Failures)
	}
}
