package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// testHub builds a hub with a little of everything in it.
func testHub() *obs.Hub {
	h := obs.NewHub(obs.Options{})
	h.TxnCommit(1, 7, proto.ClassUser, 1, h.TxnBegin(1, 7, proto.ClassUser, 1))
	h.TxnAbort(2, 8, proto.ClassUser, 1, h.TxnBegin(2, 8, proto.ClassUser, 1), proto.ErrSiteDown)
	h.SiteCrash(3)
	return h
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// promLine matches one valid exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?$`)

func TestMetricsPrometheus(t *testing.T) {
	srv := httptest.NewServer(Handler(Config{Hub: testHub()}))
	defer srv.Close()

	code, body, ctype := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ctype)
	}
	sawType, sawSample := false, false
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			sawType = true
			continue
		}
		sawSample = true
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
	if !sawType || !sawSample {
		t.Fatalf("exposition lacks TYPE headers or samples:\n%s", body)
	}
	for _, want := range []string{
		`sr_txn_commit_user_total{site="1"} 1`,
		`sr_txn_abort_site_down_total{site="2"} 1`,
		`sr_site_crashes_total{site="3"} 1`,
		`sr_txn_attempts{site="1",quantile="0.5"} 1`,
		"# TYPE sr_txn_attempts summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// Byte-determinism: the same hub state renders identically; only the
	// runtime gauges move between scrapes.
	_, body2, _ := get(t, srv, "/metrics")
	if withoutRuntime(body) != withoutRuntime(body2) {
		t.Error("repeated scrapes of the same state differ")
	}
}

// withoutRuntime drops the sr_go_* samples from an exposition.
func withoutRuntime(body string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if !strings.HasPrefix(line, "sr_go_") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func TestTrace(t *testing.T) {
	srv := httptest.NewServer(Handler(Config{Hub: testHub()}))
	defer srv.Close()

	code, body, _ := get(t, srv, "/trace?n=2")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (newest events):\n%s", len(lines), body)
	}
	if !strings.Contains(lines[1], "site.crash") {
		t.Errorf("last line should be the crash event: %q", lines[1])
	}

	code, body, _ = get(t, srv, "/trace?format=json&n=3")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var events []obs.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 3 || events[2].Type != obs.EvSiteCrash {
		t.Fatalf("decoded %+v", events)
	}

	if code, _, _ := get(t, srv, "/trace?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n returned %d, want 400", code)
	}
}

func TestSites(t *testing.T) {
	status := []SiteStatus{
		{Site: 1, Up: true, Operational: true, Session: 1},
		{Site: 2, Up: false, Operational: false, Session: 0},
	}
	srv := httptest.NewServer(Handler(Config{Sites: func() []SiteStatus { return status }}))
	defer srv.Close()
	code, body, ctype := get(t, srv, "/sites")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d, content type %q", code, ctype)
	}
	var got []SiteStatus
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Session != 0 || got[1].Up {
		t.Fatalf("decoded %+v", got)
	}
}

// TestNilHub requires every endpoint to serve well-formed empties rather
// than panic when no hub is wired.
func TestNilHub(t *testing.T) {
	srv := httptest.NewServer(Handler(Config{}))
	defer srv.Close()
	for _, path := range []string{"/", "/metrics", "/trace", "/trace?format=json", "/sites"} {
		code, _, _ := get(t, srv, path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
		}
	}
	if code, _, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path served %d, want 404", code)
	}
}

// TestStartClose exercises the real listener path srsim uses.
func TestStartClose(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{Hub: testHub()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeMetrics requires the Go runtime gauges to appear, as valid
// exposition, on every scrape.
func TestRuntimeMetrics(t *testing.T) {
	srv := httptest.NewServer(Handler(Config{Hub: testHub()}))
	defer srv.Close()
	code, body, _ := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE sr_go_goroutines gauge",
		`sr_go_goroutines{site="cluster"}`,
		`sr_go_heap_alloc_bytes{site="cluster"}`,
		`sr_go_heap_objects{site="cluster"}`,
		`sr_go_gc_runs{site="cluster"}`,
		`sr_go_gc_pause_total_ns{site="cluster"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Hub metrics still present alongside the runtime ones.
	if !strings.Contains(body, `sr_txn_commit_user_total{site="1"} 1`) {
		t.Error("hub metrics lost when runtime gauges merged in")
	}

	// A nil hub still serves the runtime gauges.
	srv2 := httptest.NewServer(Handler(Config{}))
	defer srv2.Close()
	if _, body2, _ := get(t, srv2, "/metrics"); !strings.Contains(body2, "sr_go_goroutines") {
		t.Error("nil hub lacks runtime gauges")
	}
}

// TestPprofMount requires /debug/pprof/ to serve only when opted in.
func TestPprofMount(t *testing.T) {
	srv := httptest.NewServer(Handler(Config{Hub: testHub(), Pprof: true}))
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		if code, _, _ := get(t, srv, path); code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, code)
		}
	}
	srv2 := httptest.NewServer(Handler(Config{Hub: testHub()}))
	defer srv2.Close()
	if code, _, _ := get(t, srv2, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: %d", code)
	}
}

// TestTraceSince pages the ring incrementally by sequence number, including
// after the ring has wrapped and dropped its oldest events.
func TestTraceSince(t *testing.T) {
	h := obs.NewHub(obs.Options{TraceCapacity: 8})
	for i := 0; i < 20; i++ {
		h.SiteCrash(proto.SiteID(1 + i%3))
	}
	srv := httptest.NewServer(Handler(Config{Hub: h}))
	defer srv.Close()

	// Seqs are 0-based: 20 emits into a ring of 8 leaves 12..19; since=15
	// should yield exactly 16..19.
	code, body, _ := get(t, srv, "/trace?format=json&since=15")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var events []obs.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 || events[0].Seq != 16 || events[3].Seq != 19 {
		t.Fatalf("since=15 returned seqs %v", seqs(events))
	}

	// since past the end is an empty page, not an error.
	if _, body, _ = get(t, srv, "/trace?format=json&since=19"); body != "[]\n" {
		t.Errorf("since=19 = %q, want empty array", body)
	}
	// since composes with n: last page bounded to 2 events.
	if _, body, _ = get(t, srv, "/trace?format=json&since=15&n=2"); true {
		events = nil
		if err := json.Unmarshal([]byte(body), &events); err != nil {
			t.Fatal(err)
		}
		if len(events) != 2 || events[1].Seq != 19 {
			t.Errorf("since=15&n=2 returned seqs %v", seqs(events))
		}
	}
	if code, _, _ := get(t, srv, "/trace?since=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad since returned %d, want 400", code)
	}
}

func seqs(events []obs.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	return out
}

// TestDroppedCounterExposed: ring overflow surfaces as a scrapeable counter.
func TestDroppedCounterExposed(t *testing.T) {
	h := obs.NewHub(obs.Options{TraceCapacity: 4})
	for i := 0; i < 10; i++ {
		h.SiteCrash(1)
	}
	srv := httptest.NewServer(Handler(Config{Hub: h}))
	defer srv.Close()
	_, body, _ := get(t, srv, "/metrics")
	if !strings.Contains(body, `sr_obs_events_dropped_total{site="cluster"} 6`) {
		t.Fatalf("exposition lacks the dropped-events counter:\n%s", body)
	}
}

// TestConcurrentScrapeAndEmit hammers every endpoint while the hub keeps
// emitting; run under -race this is the data-race check for the read path.
func TestConcurrentScrapeAndEmit(t *testing.T) {
	h := obs.NewHub(obs.Options{TraceCapacity: 64})
	srv := httptest.NewServer(Handler(Config{Hub: h}))
	defer srv.Close()

	stop := make(chan struct{})
	emitterDone := make(chan struct{})
	go func() {
		defer close(emitterDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			begun := h.TxnBegin(proto.SiteID(1+i%3), proto.TxnID(i), proto.ClassUser, 1)
			h.TxnCommit(proto.SiteID(1+i%3), proto.TxnID(i), proto.ClassUser, 1, begun)
		}
	}()
	paths := []string{"/metrics", "/trace", "/trace?format=json", "/trace?format=json&since=5", "/sites"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := srv.Client().Get(srv.URL + paths[(g+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-emitterDone
}
