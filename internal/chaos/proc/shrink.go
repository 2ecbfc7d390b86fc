package proc

import (
	"context"
	"fmt"
	"path/filepath"

	"siterecovery/internal/chaos"
)

// Shrink delta-debugs a failing process schedule down to a 1-minimal
// reproducer, reusing the netsim ddmin engine with a runner that replays
// each candidate against a fresh process cluster. Every attempt gets its own
// numbered artifact directory under opts.Dir so the shrink trail is
// inspectable afterwards.
//
// Process runs are slower and less deterministic than simulator runs —
// ddmin only keeps reductions that still reproduce the failure, so timing
// flakiness costs shrink quality (a larger reproducer), never correctness.
func Shrink(ctx context.Context, sched chaos.Schedule, failure chaos.Failure, opts Options, log func(string)) (chaos.Schedule, error) {
	attempt := 0
	run := func(ctx context.Context, s chaos.Schedule) ([]chaos.Failure, error) {
		attempt++
		o := opts
		o.Dir = filepath.Join(o.Dir, fmt.Sprintf("shrink%03d", attempt))
		res, err := Run(ctx, s, o)
		if err != nil {
			return nil, err
		}
		return res.Failures, nil
	}
	return chaos.ShrinkWith(ctx, sched, failure, run, log)
}
