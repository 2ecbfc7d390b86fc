package metrics

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestKeyString(t *testing.T) {
	cases := []struct {
		key  Key
		want string
	}{
		{Key{Site: 3, Subsystem: "txn", Name: "commit"}, "site3/txn/commit"},
		{Key{Site: 0, Subsystem: "net", Name: "dropped"}, "cluster/net/dropped"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.key, got, c.want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter(1, "txn", "commit")
	c1.Inc()
	c2 := r.Counter(1, "txn", "commit")
	if c1 != c2 {
		t.Fatal("same key returned distinct counters")
	}
	if got := c2.Value(); got != 1 {
		t.Fatalf("counter value = %d, want 1", got)
	}
	if r.Gauge(1, "copier", "queue") != r.Gauge(1, "copier", "queue") {
		t.Fatal("same key returned distinct gauges")
	}
	if r.IntHist(1, "txn", "attempts") != r.IntHist(1, "txn", "attempts") {
		t.Fatal("same key returned distinct histograms")
	}
	if r.Counter(2, "txn", "commit") == c1 {
		t.Fatal("different sites share a counter")
	}
}

func TestIntHist(t *testing.T) {
	var h IntHist
	for _, v := range []int64{1, 1, 2, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if got := h.Sum(); got != 9 {
		t.Errorf("Sum = %d, want 9", got)
	}
	if got := h.Max(); got != 5 {
		t.Errorf("Max = %d, want 5", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter(1, "txn", "commit").Add(3)
	r.Gauge(1, "copier", "queue").Set(7)
	r.IntHist(1, "txn", "attempts").Observe(2)
	r.Counter(2, "txn", "abort").Inc()

	before := r.Snapshot()

	r.Counter(1, "txn", "commit").Add(2)
	r.Gauge(1, "copier", "queue").Set(4)
	r.IntHist(1, "txn", "attempts").Observe(3)
	// site 2's abort counter does not move.

	diff := r.Snapshot().Diff(before)

	if got := diff[Key{1, "txn", "commit"}]; got.Count != 2 {
		t.Errorf("counter delta = %d, want 2", got.Count)
	}
	if got := diff[Key{1, "copier", "queue"}]; got.Sum != 4 {
		t.Errorf("gauge level = %d, want current level 4", got.Sum)
	}
	if got := diff[Key{1, "txn", "attempts"}]; got.Count != 1 || got.Sum != 3 {
		t.Errorf("hist delta = count=%d sum=%d, want count=1 sum=3", got.Count, got.Sum)
	}
	if _, ok := diff[Key{2, "txn", "abort"}]; ok {
		t.Error("unchanged counter survived the diff")
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter(2, "dm", "session_mismatch").Inc()
	r.Counter(1, "txn", "commit").Add(4)
	r.IntHist(1, "txn", "attempts").Observe(1)
	r.IntHist(1, "txn", "attempts").Observe(3)

	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
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
	if err := r.Snapshot().WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("repeated WriteText of the same state differs")
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(1, "txn", "commit").Add(4)
	r.Gauge(0, "net", "inflight").Set(2)

	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Metric string `json:"metric"`
		Kind   string `json:"kind"`
		Count  uint64 `json:"count"`
		Sum    int64  `json:"sum"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	// Sorted: cluster (site 0) before site1.
	if got[0].Metric != "cluster/net/inflight" || got[0].Sum != 2 {
		t.Errorf("entry 0 = %+v", got[0])
	}
	if got[1].Metric != "site1/txn/commit" || got[1].Count != 4 {
		t.Errorf("entry 1 = %+v", got[1])
	}
}

func TestIntHistQuantile(t *testing.T) {
	h := &IntHist{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty hist p50 = %d, want 0", got)
	}
	// 100 samples of 1, one of 1000: p50 sits in the {0,1} bucket, p99+
	// reaches the outlier's bucket, capped at the observed max.
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want the observed max 1000", got)
	}
	if got := h.Quantile(0.995); got != 1000 {
		t.Errorf("p99.5 = %d, want capped at max 1000", got)
	}
}

func TestSnapshotHistPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.IntHist(1, "txn", "commit_latency_us")
	for i := 0; i < 99; i++ {
		h.Observe(8)
	}
	h.Observe(5000)
	s := r.Snapshot()[Key{Site: 1, Subsystem: "txn", Name: "commit_latency_us"}]
	if s.P50 == 0 || s.P50 > 15 {
		t.Errorf("P50 = %d, want the 8-sample bucket bound", s.P50)
	}
	if s.P99 != s.P50 {
		t.Errorf("P99 = %d, want %d (99 of 100 samples are 8)", s.P99, s.P50)
	}

	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "p50=") || !strings.Contains(b.String(), "p99=") {
		t.Errorf("WriteText lacks percentiles:\n%s", b.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(1, "txn", "commit.user").Add(3)
	r.Counter(2, "txn", "commit.user").Add(5)
	r.Counter(0, "net", "dropped").Inc()
	r.Gauge(1, "copier", "queue").Set(7)
	r.IntHist(1, "txn", "attempts").Observe(2)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
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
	if err := r.Snapshot().WritePrometheus(&b2); err != nil {
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
