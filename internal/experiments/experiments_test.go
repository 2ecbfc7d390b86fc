package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/recovery"
	"siterecovery/internal/workload"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registry has %d experiments, want 10", len(all))
	}
	seen := make(map[string]bool)
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Claim == "" || r.Run == nil {
			t.Errorf("experiment %q incomplete", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment %q", r.ID)
		}
		seen[r.ID] = true
	}
	if _, ok := ByID("e7"); !ok {
		t.Error("ByID must be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID found a ghost")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "long_column") || !strings.Contains(s, "note: a note") {
		t.Fatalf("render missing parts:\n%s", s)
	}
	csv := tab.CSV()
	if csv != "a,long_column\n1,2\n" {
		t.Fatalf("CSV = %q", csv)
	}
}

// parse helpers for assertions on experiment outputs.

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", cell, err)
	}
	return f
}

func findRows(tab *Table, match func(row []string) bool) [][]string {
	var out [][]string
	for _, row := range tab.Rows {
		if match(row) {
			out = append(out, row)
		}
	}
	return out
}

func TestE1AvailabilityShape(t *testing.T) {
	tab, err := RunE1(Quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)

	// With 0 failures everyone is fully available.
	for _, row := range findRows(tab, func(r []string) bool { return r[0] == "0" }) {
		if cellFloat(t, row[2]) < 0.99 || cellFloat(t, row[3]) < 0.99 {
			t.Errorf("healthy cluster availability < 1: %v", row)
		}
	}
	// With 2 of 5 failed: rowaa writes stay fully available (3-way
	// replication always leaves a live copy), rowa writes degrade.
	rowaa := findRows(tab, func(r []string) bool { return r[0] == "2" && r[1] == "rowaa" })
	rowa := findRows(tab, func(r []string) bool { return r[0] == "2" && r[1] == "rowa" })
	if len(rowaa) != 1 || len(rowa) != 1 {
		t.Fatalf("missing rows: rowaa=%v rowa=%v", rowaa, rowa)
	}
	if w := cellFloat(t, rowaa[0][3]); w < 0.99 {
		t.Errorf("rowaa write availability at f=2 = %.3f, want ~1", w)
	}
	if w := cellFloat(t, rowa[0][3]); w > 0.6 {
		t.Errorf("rowa write availability at f=2 = %.3f, want degraded", w)
	}
	// With 4 of 5 failed, rowaa reads still work for every item that kept
	// one live copy.
	last := findRows(tab, func(r []string) bool { return r[0] == "4" && r[1] == "rowaa" })
	if len(last) != 1 {
		t.Fatal("missing f=4 rowaa row")
	}
	if rd := cellFloat(t, last[0][2]); rd <= 0.3 {
		t.Errorf("rowaa read availability at f=4 = %.3f, want > quorum's 0", rd)
	}
}

func TestE3RecoveryLatencyShape(t *testing.T) {
	tab, err := RunE3(Quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)

	// Wall-clock columns are too noisy to assert at Quick scale on a
	// shared host; the deterministic shape lives in the work column:
	// spooler replay grows with every missed update, while copier work is
	// bounded by the database size.
	spool := findRows(tab, func(r []string) bool { return r[1] == "spooler" })
	paper := findRows(tab, func(r []string) bool { return r[1] == "paper(copiers)" })
	if len(spool) < 3 || len(paper) < 3 {
		t.Fatalf("missing rows")
	}
	for i := 1; i < len(spool); i++ {
		prev := cellFloat(t, spool[i-1][4])
		cur := cellFloat(t, spool[i][4])
		missed := cellFloat(t, spool[i][0])
		if cur != missed {
			t.Errorf("spooler replayed %v of %v missed updates", cur, missed)
		}
		if cur < prev {
			t.Errorf("spooler replay did not grow: %v -> %v", prev, cur)
		}
	}
	// Copier work never exceeds the database size even when the missed
	// count does (the bounded-work property the spooler lacks).
	last := paper[len(paper)-1]
	missed := cellFloat(t, last[0])
	copied := cellFloat(t, last[4])
	if copied > missed {
		t.Errorf("copied %v > missed %v", copied, missed)
	}
	spoolLast := cellFloat(t, spool[len(spool)-1][4])
	if copied >= spoolLast && missed > copied {
		t.Errorf("copier work %v not bounded below spooler replay %v", copied, spoolLast)
	}
	// And the timing columns must at least parse as durations.
	for _, row := range tab.Rows {
		for _, cell := range []string{row[2], row[3]} {
			if _, err := time.ParseDuration(cell); err != nil {
				t.Errorf("unparseable duration cell %q", cell)
			}
		}
	}
}

func TestE4IdentificationShape(t *testing.T) {
	tab, err := RunE4(Quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)

	// At 10% updated: markall copies everything, faillock copies ~10%.
	markall := findRows(tab, func(r []string) bool { return r[0] == "0.10" && r[1] == "markall" })
	faillock := findRows(tab, func(r []string) bool { return r[0] == "0.10" && r[1] == "faillock" })
	versiondiff := findRows(tab, func(r []string) bool { return r[0] == "0.10" && r[1] == "versiondiff" })
	if len(markall) != 1 || len(faillock) != 1 || len(versiondiff) != 1 {
		t.Fatal("missing rows")
	}
	markallCopies := cellFloat(t, markall[0][4])
	faillockCopies := cellFloat(t, faillock[0][4])
	if faillockCopies >= markallCopies {
		t.Errorf("faillock data copies %v !< markall %v", faillockCopies, markallCopies)
	}
	// versiondiff transfers only what changed even though it marks all.
	vdCopies := cellFloat(t, versiondiff[0][4])
	vdSkips := cellFloat(t, versiondiff[0][5])
	if vdCopies > faillockCopies+2 {
		t.Errorf("versiondiff copies %v, want close to changed set %v", vdCopies, faillockCopies)
	}
	if vdSkips == 0 {
		t.Error("versiondiff skipped nothing")
	}
}

func TestE7CertificationShape(t *testing.T) {
	tab, err := RunE7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)

	naive := findRows(tab, func(r []string) bool { return r[0] == "§1 interleaving" && r[1] == "naive" })
	rowaa := findRows(tab, func(r []string) bool { return r[0] == "§1 interleaving" && r[1] == "rowaa" })
	random := findRows(tab, func(r []string) bool { return r[0] == "randomized crash/recover" })
	if len(naive) != 1 || len(rowaa) != 1 || len(random) != 1 {
		t.Fatal("missing rows")
	}
	if v := cellFloat(t, naive[0][4]); v == 0 {
		t.Error("naive produced no violations on the §1 interleaving")
	}
	if v := cellFloat(t, rowaa[0][4]); v != 0 {
		t.Errorf("rowaa produced %v violations", v)
	}
	if v := cellFloat(t, random[0][4]); v != 0 {
		t.Errorf("randomized rowaa runs produced %v violations", v)
	}
}

// TestE7FullScaleCoverage: the seeds -scale full certifies draw every
// identification strategy, every access distribution and both cycle counts,
// so the fold of srcheck into E7 fuzzes what srcheck fuzzed.
func TestE7FullScaleCoverage(t *testing.T) {
	identifies := map[recovery.Identify]bool{}
	dists := map[workload.Dist]bool{}
	cycles := map[int]bool{}
	for i := 0; i < fullRandomizedRuns; i++ {
		p := drawRandomized(randomizedSeed(i))
		if p.victim < 2 || p.victim > randomizedSites {
			t.Fatalf("run %d: victim %v; site 1 hosts the clients and must stay up", i, p.victim)
		}
		identifies[p.identify], dists[p.dist], cycles[p.cycles] = true, true, true
	}
	if fullRandomizedRuns < 20 || len(identifies) != 4 || len(dists) != 3 || len(cycles) != 2 {
		t.Fatalf("%d full-scale runs cover %d/4 strategies, %d/3 distributions, %d/2 cycle counts",
			fullRandomizedRuns, len(identifies), len(dists), len(cycles))
	}
}

// TestE9CountsOnlyUserCommits: user_txns counts committed user transactions,
// so it can never exceed the arrivals (1000 per row at quick scale), however
// many control and copier transactions the failure rows add.
func TestE9CountsOnlyUserCommits(t *testing.T) {
	const arrivals = 1000
	tab, err := RunE9(Quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	failing := findRows(tab, func(r []string) bool { return r[1] != "0" })
	if len(failing) != 3 {
		t.Fatalf("want 3 failure rows, got %v", failing)
	}
	for _, row := range failing {
		if user := cellFloat(t, row[2]); user > arrivals {
			t.Errorf("%s sites: user_txns %v > %d arrivals", row[0], user, arrivals)
		}
	}
}

func TestE10SessionLifecycleShape(t *testing.T) {
	tab, err := RunE10(Quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 1 {
		t.Fatal("want one row")
	}
	row := tab.Rows[0]
	if row[2] != "true" || row[3] != "true" || row[4] != "true" {
		t.Errorf("lifecycle invariants violated: %v", row)
	}
}
