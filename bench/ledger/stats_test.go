package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		// One stalled window must not move the estimate.
		{[]float64{1200, 1210, 0, 1190, 1205}, 1200},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileIsAnExactOrderStatistic(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Microsecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.50, 50 * time.Microsecond}, {0.95, 95 * time.Microsecond}, {0.99, 99 * time.Microsecond}, {1, 100 * time.Microsecond}, {0, time.Microsecond}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(sorted[:3], 0.95); got != 3*time.Microsecond {
		t.Errorf("p95 of three samples = %v, want the maximum", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestWindowCounts(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) commit { return commit{end: start.Add(time.Duration(ms) * time.Millisecond)} }
	commits := []commit{at(-5), at(0), at(999), at(1000), at(2500), at(2999), at(3000), at(3001)}
	got := windowCounts(start, 3, commits)
	want := []float64{2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowCounts = %v, want %v", got, want)
		}
	}
}

func TestMaxGap(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) commit { return commit{end: start.Add(time.Duration(ms) * time.Millisecond)} }
	span := 2 * time.Second
	if got := maxGap(start, span, []commit{at(900), at(100), at(1000), at(2500)}); got != time.Second {
		t.Errorf("maxGap = %v, want 1s (from the commit at 1000 ms to the end of the span)", got)
	}
	if got := maxGap(start, span, nil); got != span {
		t.Errorf("maxGap with no commits = %v, want the whole span", got)
	}
	if got := maxGap(start, span, []commit{at(1500), at(1900)}); got != 1500*time.Millisecond {
		t.Errorf("maxGap = %v, want 1.5s (from the start to the first commit)", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime and stime are 14 and 15.
	stat := "4242 (sr node) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 567 0 0 20 0 9 0 100 200 300"
	got, err := parseProcStat(stat)
	if err != nil || got != 1234+567 {
		t.Fatalf("parseProcStat = %v, %v; want %d", got, err, 1234+567)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 a b c"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
}

func TestParseHostStat(t *testing.T) {
	stat := "cpu  515300 0 197507 608524 3700 0 57789 60252 11 22\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	steal, total, err := parseHostStat(stat)
	if err != nil || steal != 60252 || total != 515300+197507+608524+3700+57789+60252 {
		t.Fatalf("parseHostStat = %d, %d, %v", steal, total, err)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseHostStat(bad); err == nil {
			t.Errorf("parseHostStat(%q) did not fail", bad)
		}
	}
}

func TestParseStatusKiB(t *testing.T) {
	status := "Name:\tsrnode\nVmPeak:\t  999 kB\nVmHWM:\t   50000 kB\nVmRSS:\t   41234 kB\nThreads:\t9\n"
	if got, err := parseStatusKiB(status, "VmRSS"); err != nil || got != 41234 {
		t.Errorf("parseStatusKiB(VmRSS) = %v, %v; want 41234", got, err)
	}
	if _, err := parseStatusKiB("Name:\tx\n", "VmRSS"); err == nil {
		t.Error("a status without a VmRSS line did not fail")
	}
	if _, err := parseStatusKiB("VmRSS:\t12 pages\n", "VmRSS"); err == nil {
		t.Error("a VmRSS line not in kB did not fail")
	}
}

func TestParsePromKeepsSumsCountsTotalsAndAddsLabelSets(t *testing.T) {
	text := `# TYPE sr_txn_commit_latency_us summary
sr_txn_commit_latency_us{site="1",quantile="0.5"} 4095
sr_txn_commit_latency_us_sum{site="1"} 18718
sr_txn_commit_latency_us_count{site="1"} 5
sr_txn_commit_latency_us_sum{site="2"} 1282
sr_txn_commit_latency_us_count{site="2"} 3
# TYPE sr_net_sent_write_total counter
sr_net_sent_write_total{site="1"} 20
sr_go_goroutines{site="cluster"} 10
`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sr_txn_commit_latency_us_sum":   20000,
		"sr_txn_commit_latency_us_count": 8,
		"sr_net_sent_write_total":        20,
	}
	if len(got) != len(want) {
		t.Fatalf("parseProm = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseProm(strings.NewReader("sr_x_total{site=\"1\"} many\n")); err == nil {
		t.Error("a non-numeric sample did not fail")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1.0", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := spread([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
}
