package obs

import (
	"strings"
	"testing"
)

func TestTableGetOrCreate(t *testing.T) {
	h := NewHub(Options{})
	c1 := h.lookup(key{1, "txn", "commit", "user"}, counter)
	c1.v.Add(1)
	if h.lookup(key{1, "txn", "commit", "user"}, counter) != c1 {
		t.Fatal("same key returned distinct counters")
	}
	if got := h.Value(1, "txn", "commit.user"); got != 1 {
		t.Fatalf("counter value = %d, want 1", got)
	}
	if h.lookup(key{1, "dm", "prepared", ""}, level) != h.lookup(key{1, "dm", "prepared", ""}, level) {
		t.Fatal("same key returned distinct levels")
	}
	if h.lookup(key{1, "txn", "attempts", ""}, hist) != h.lookup(key{1, "txn", "attempts", ""}, hist) {
		t.Fatal("same key returned distinct histograms")
	}
	if h.lookup(key{2, "txn", "commit", "user"}, counter) == c1 {
		t.Fatal("different sites share a counter")
	}
}

func TestSnapshotWriteText(t *testing.T) {
	h := NewHub(Options{})
	h.inc(key{2, "dm", "session_mismatch", ""})
	h.lookup(key{1, "txn", "commit", ""}, counter).v.Add(4)
	h.observe(key{1, "txn", "attempts", ""}, 1)
	h.observe(key{1, "txn", "attempts", ""}, 3)

	var b strings.Builder
	if err := h.WriteText(&b); err != nil {
		t.Fatal(err)
	}

	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "metric") {
		t.Errorf("missing header: %q", lines[0])
	}
	// Sorted by site, then subsystem, then name.
	wantOrder := []string{"site1/txn/attempts", "site1/txn/commit", "site2/dm/session_mismatch"}
	for i, prefix := range wantOrder {
		if !strings.HasPrefix(lines[i+1], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i+1, lines[i+1], prefix)
		}
	}
	if !strings.Contains(lines[1], "count=2 sum=4 max=3 mean=2.00") {
		t.Errorf("hist line = %q", lines[1])
	}

	// Byte-identical across repeated exports of the same state.
	var b2 strings.Builder
	if err := h.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("repeated WriteText of the same state differs")
	}
}

func TestSnapshotHistPercentiles(t *testing.T) {
	h := NewHub(Options{})
	k := key{1, "txn", "commit_latency_us", ""}
	for i := 0; i < 99; i++ {
		h.observe(k, 8)
	}
	h.observe(k, 5000)
	_, _, _, p50, _, p99 := h.lookup(k, hist).h.Summary()
	if p50 == 0 || p50 > 15 {
		t.Errorf("P50 = %d, want the 8-sample bucket bound", p50)
	}
	if p99 != p50 {
		t.Errorf("P99 = %d, want %d (99 of 100 samples are 8)", p99, p50)
	}

	var b strings.Builder
	if err := h.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "p50=") || !strings.Contains(b.String(), "p99=") {
		t.Errorf("WriteText lacks percentiles:\n%s", b.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	h := NewHub(Options{})
	h.lookup(key{1, "txn", "commit", "user"}, counter).v.Add(3)
	h.lookup(key{2, "txn", "commit", "user"}, counter).v.Add(5)
	h.inc(key{0, "net", "dropped", ""})
	h.SetLevel(1, "copier", "queue", 7)
	h.observe(key{1, "txn", "attempts", ""}, 2)

	var b strings.Builder
	if err := h.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sr_txn_commit_user_total counter\n" +
			"sr_txn_commit_user_total{site=\"1\"} 3\n" +
			"sr_txn_commit_user_total{site=\"2\"} 5\n",
		"sr_net_dropped_total{site=\"cluster\"} 1\n",
		"# TYPE sr_copier_queue gauge\nsr_copier_queue{site=\"1\"} 7\n",
		"# TYPE sr_txn_attempts summary\n",
		"sr_txn_attempts_count{site=\"1\"} 1\n",
		"sr_txn_attempts_sum{site=\"1\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, even with several sites.
	if got := strings.Count(out, "# TYPE sr_txn_commit_user_total"); got != 1 {
		t.Errorf("family header appears %d times, want 1", got)
	}

	var b2 strings.Builder
	if err := h.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("repeated exposition of the same state differs")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"commit.user":     "commit_user",
		"abort.site-down": "abort_site_down",
		"already_ok":      "already_ok",
		"a..b--c":         "a_b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
