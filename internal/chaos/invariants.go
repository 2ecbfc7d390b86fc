// Package chaos is a seeded fault-schedule engine for the simulated DDBS:
// it generates randomized plans of crashes, recoveries, partitions, heals,
// loss bursts, copier stalls, and user transactions, executes them strictly
// sequentially against a core.Cluster so the resulting observability trace
// is byte-identical for a given schedule, checks a reusable invariant suite
// afterwards, and delta-debugs failing schedules down to minimal
// reproducers.
//
// The package validates the paper's claims the way deterministic-simulation
// shops do: not with hand-picked interleavings but with thousands of seeded
// adversarial ones, each replayable from a small JSON artifact.
package chaos

import (
	"fmt"
	"strings"

	"siterecovery/internal/core"
	"siterecovery/internal/history"
	"siterecovery/internal/proto"
)

// Info summarizes what a chaos run actually did, so invariants (and test
// hooks) can condition on it.
type Info struct {
	StepsRun         int `json:"steps_run"`
	StepsSkipped     int `json:"steps_skipped"`
	Crashes          int `json:"crashes"`
	Recoveries       int `json:"recoveries"`
	FailedRecoveries int `json:"failed_recoveries"`
	ClaimsDown       int `json:"claims_down"`
	FailedClaims     int `json:"failed_claims"`
	TxnCommitted     int `json:"txn_committed"`
	TxnAborted       int `json:"txn_aborted"`
	TotalResolved    int `json:"total_resolved"`
	// ExclusionRepairs counts sites quiesce had to fail-stop and re-recover
	// because a type-2 claim had excluded them while they kept running
	// (§3.3 treats an unreachable site as crashed).
	ExclusionRepairs int `json:"exclusion_repairs"`
}

// Invariant is one named post-run check. Check returns nil when the
// invariant holds and a detailed error when it does not.
type Invariant struct {
	Name  string
	Check func(*core.Cluster, Info) error
}

// Failure is one invariant violation from a run.
type Failure struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// String implements fmt.Stringer.
func (f Failure) String() string { return f.Invariant + ": " + f.Detail }

// Check runs the given invariants against a quiesced cluster and returns
// every violation.
func Check(c *core.Cluster, info Info, invariants []Invariant) []Failure {
	var out []Failure
	for _, inv := range invariants {
		if err := inv.Check(c, info); err != nil {
			out = append(out, Failure{Invariant: inv.Name, Detail: err.Error()})
		}
	}
	return out
}

// DefaultSuite is the full invariant suite a chaos run must satisfy after
// quiescing. Each entry names the paper property it checks.
func DefaultSuite() []Invariant {
	return []Invariant{
		OneSR(),
		ConflictAcyclic(),
		CopiesConverged(),
		AllCurrent(),
		NSAgreement(),
		WALConsistent(),
		NoLeakedLocks(),
	}
}

// OneSR checks the §4.1 revised 1-STG over the user database: the recorded
// history must be one-serializable (Theorems 1-2).
func OneSR() Invariant {
	return Invariant{Name: "one-sr", Check: func(c *core.Cluster, _ Info) error {
		if ok, cycle := c.CertifyOneSR(); !ok {
			return fmt.Errorf("history not one-serializable; 1-STG cycle %v", cycle)
		}
		return nil
	}}
}

// ConflictAcyclic checks that the conflict graph over the whole database
// (user items plus nominal-session copies) is acyclic — the strict-2PL
// premise of Theorem 3.
func ConflictAcyclic() Invariant {
	return Invariant{Name: "conflict-acyclic", Check: func(c *core.Cluster, _ Info) error {
		if g := c.History().ConflictGraph(history.DomainAll); !g.Acyclic() {
			return fmt.Errorf("conflict graph over DB∪NS cyclic: %v", g.Cycle())
		}
		return nil
	}}
}

// CopiesConverged checks that every up-site copy of every item carries the
// same version (§3.2: copiers eventually make all copies current).
func CopiesConverged() Invariant {
	return Invariant{Name: "copies-converged", Check: func(c *core.Cluster, _ Info) error {
		if div := c.CopiesConverged(); len(div) > 0 {
			return fmt.Errorf("divergent items after quiesce: %v", div)
		}
		return nil
	}}
}

// AllCurrent checks that no operational site still holds unreadable copies
// after quiesce — data recovery (§3.4 step 5) actually finished.
func AllCurrent() Invariant {
	return Invariant{Name: "all-current", Check: func(c *core.Cluster, _ Info) error {
		var stale []string
		for _, id := range c.Sites() {
			s := c.Site(id)
			if !s.Up() || !s.Operational() {
				continue
			}
			if items := s.Store.UnreadableItems(); len(items) > 0 {
				stale = append(stale, fmt.Sprintf("site %v: %v", id, items))
			}
		}
		if len(stale) > 0 {
			return fmt.Errorf("unreadable copies after quiesce: %s", strings.Join(stale, "; "))
		}
		return nil
	}}
}

// NSAgreement checks that the nominal-session-vector copies agree across
// all operational sites (§3.3: control transactions install the vector
// atomically, so no two operational sites may disagree after quiesce).
func NSAgreement() Invariant {
	return Invariant{Name: "ns-agreement", Check: func(c *core.Cluster, _ Info) error {
		for _, j := range c.Sites() {
			item := proto.NSItem(j)
			var (
				first     proto.Value
				firstSite proto.SiteID
				seen      bool
			)
			for _, id := range c.Sites() {
				s := c.Site(id)
				if !s.Up() || !s.Operational() {
					continue
				}
				v, _, err := s.Store.Committed(item)
				if err != nil {
					return fmt.Errorf("site %v cannot read %s: %v", id, item, err)
				}
				if !seen {
					first, firstSite, seen = v, id, true
					continue
				}
				if v != first {
					return fmt.Errorf("ns vector disagreement on %s: site %v has %d, site %v has %d",
						item, firstSite, first, id, v)
				}
			}
		}
		return nil
	}}
}

// WALConsistent cross-checks each operational site's stable log and storage
// against the recorded history: no in-doubt 2PC state may survive quiesce,
// every logged commit must belong to a history-committed transaction, and
// every installed version's writer must have committed.
func WALConsistent() Invariant {
	return Invariant{Name: "wal-consistent", Check: func(c *core.Cluster, _ Info) error {
		h := c.History()
		for _, id := range c.Sites() {
			s := c.Site(id)
			if !s.Up() || !s.Operational() {
				continue
			}
			if indoubt := s.Log.InDoubt(); len(indoubt) > 0 {
				return fmt.Errorf("site %v still in doubt about %v after quiesce", id, indoubt)
			}
			for _, txn := range s.Log.Committed() {
				info, ok := h.Txn(txn)
				if !ok {
					return fmt.Errorf("site %v logged commit of unknown txn %v", id, txn)
				}
				if !info.Committed {
					return fmt.Errorf("site %v logged commit of txn %v, which the history has uncommitted", id, txn)
				}
			}
			copies, err := s.Store.Snapshot()
			if err != nil {
				return fmt.Errorf("site %v snapshot: %w", id, err)
			}
			for _, copy := range copies {
				if copy.Unreadable {
					continue
				}
				info, ok := h.Txn(copy.Version.Writer)
				if !ok {
					return fmt.Errorf("site %v copy %s installed by unknown txn %v", id, copy.Item, copy.Version.Writer)
				}
				if !info.Committed {
					return fmt.Errorf("site %v copy %s installed by uncommitted txn %v", id, copy.Item, copy.Version.Writer)
				}
			}
		}
		return nil
	}}
}

// NoLeakedLocks checks that strict two-phase locking released everything:
// on a quiesced cluster no lock table may hold a grant (a leak means some
// transaction ended without ReleaseAll).
func NoLeakedLocks() Invariant {
	return Invariant{Name: "no-leaked-locks", Check: func(c *core.Cluster, _ Info) error {
		var leaks []string
		for _, id := range c.Sites() {
			s := c.Site(id)
			if !s.Up() || !s.Operational() {
				continue
			}
			if held := s.Locks.OutstandingLocks(); len(held) > 0 {
				leaks = append(leaks, fmt.Sprintf("site %v: %v", id, held))
			}
		}
		if len(leaks) > 0 {
			return fmt.Errorf("locks leaked after quiesce: %s", strings.Join(leaks, "; "))
		}
		return nil
	}}
}
