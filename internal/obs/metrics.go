package obs

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"siterecovery/internal/metrics"
	"siterecovery/internal/proto"
)

// kind is what an instrument holds.
type kind uint8

const (
	counter kind = iota // a monotonic count
	level               // a value set from outside, read at scrape time
	hist                // an integer histogram
)

// textKinds and promTypes name each kind in the two renderings.
var (
	textKinds = [...]string{counter: "counter", level: "gauge", hist: "hist"}
	promTypes = [...]string{counter: "counter", level: "gauge", hist: "summary"}
)

// key names one instrument by its parts, so a lookup formats nothing: the
// site (0 for cluster scope), the subsystem, the name, and a suffix — a
// transaction class, an abort reason, a message kind — rendered after a
// dot. key{1, "txn", "commit", "user"} is site1/txn/commit.user.
type key struct {
	site              proto.SiteID
	sub, name, suffix string
}

// nameKey splits a rendered name ("commit.user") back into its key.
func nameKey(site proto.SiteID, subsystem, name string) key {
	name, suffix, _ := strings.Cut(name, ".")
	return key{site, subsystem, name, suffix}
}

// instrument is one entry of the hub's table.
type instrument struct {
	kind kind
	site proto.SiteID
	sub  string
	name string // the key's name and suffix, joined once at creation
	// detail is what the span events touching an rpc instrument carry:
	// "side:kind" then PostedMark, which an acknowledged request's events
	// slice off (see spanDetail).
	detail string
	v      atomic.Int64     // a counter's count, or a level
	h      *metrics.IntHist // histograms only
}

// lookup returns the instrument k names, creating it as kind kd on first
// use. The table is copied on write, so the per-emit lookup takes no lock
// and, once the instrument exists, builds no string.
func (h *Hub) lookup(k key, kd kind) *instrument {
	if in := (*h.table.Load())[k]; in != nil {
		return in
	}
	h.tableMu.Lock()
	defer h.tableMu.Unlock()
	old := *h.table.Load()
	if in := old[k]; in != nil {
		return in
	}
	in := &instrument{kind: kd, site: k.site, sub: k.sub, name: k.name}
	if k.suffix != "" {
		in.name += "." + k.suffix
	}
	if kd == hist {
		in.h = new(metrics.IntHist)
	}
	if k.sub == "rpc" {
		side, _, _ := strings.Cut(k.name, "_") // client, or client_latency_us
		in.detail = side + ":" + k.suffix + PostedMark
	}
	grown := maps.Clone(old)
	grown[k] = in
	h.table.Store(&grown)
	return in
}

// siteHot caches one site's per-commit instruments in arrays indexed by
// small numbers the emitters already hold — a transaction class, an abort
// reason's index, a message's kind byte — so those emits reach their
// instrument without hashing a string. A slot is filled from the table on
// first use, and the table stays what the renderings read.
type siteHot struct {
	begin, commit                         [proto.ClassSlots]atomic.Pointer[instrument] // by TxnClass
	abort                                 [len(abortReasons)]atomic.Pointer[instrument]
	attempts, commitLatency, abortLatency atomic.Pointer[instrument]
	answerLatency                         atomic.Pointer[instrument]
	posts                                 [len(postExitNames)]atomic.Pointer[instrument]
	sent                                  [256]atomic.Pointer[instrument]    // by proto.Kind
	rpc, rpcLatency                       [2][256]atomic.Pointer[instrument] // by side index, then kind
}

// siteHot returns site's cache, making it on first use. Like the table it
// is copied on write, so the per-emit read takes no lock.
func (h *Hub) siteHot(site proto.SiteID) *siteHot {
	if hot := (*h.hot.Load())[site]; hot != nil {
		return hot
	}
	h.tableMu.Lock()
	defer h.tableMu.Unlock()
	old := *h.hot.Load()
	if hot := old[site]; hot != nil {
		return hot
	}
	hot := new(siteHot)
	grown := maps.Clone(old)
	grown[site] = hot
	h.hot.Store(&grown)
	return hot
}

// cached returns the instrument slot holds, looking k up on first use.
func (h *Hub) cached(slot *atomic.Pointer[instrument], k key, kd kind) *instrument {
	if in := slot.Load(); in != nil {
		return in
	}
	in := h.lookup(k, kd)
	slot.Store(in)
	return in
}

// syncDropped copies the tracer's count of events lost to ring wrap-around
// into the cluster-level obs/events.dropped counter. The tracer keeps the
// count, so an emit never looks the counter up; whatever reads the table
// calls this first.
func (h *Hub) syncDropped() {
	if d := h.tr.Dropped(); d > 0 {
		h.lookup(key{0, "obs", "events", "dropped"}, counter).v.Store(int64(d))
	}
}

// inc bumps the counter k names.
func (h *Hub) inc(k key) { h.lookup(k, counter).v.Add(1) }

// observe records v into the histogram k names.
func (h *Hub) observe(k key, v int64) { h.lookup(k, hist).h.Observe(v) }

// SetLevel sets a level: a value owned elsewhere and copied in just before a
// scrape renders it (srnode's prepared-transaction count, the Go runtime's
// heap). name may carry a suffix after a dot, as rendered.
func (h *Hub) SetLevel(site proto.SiteID, subsystem, name string, v int64) {
	if h == nil {
		return
	}
	h.lookup(nameKey(site, subsystem, name), level).v.Store(v)
}

// Value reads one instrument by its rendered name ("txn", "commit.user"): a
// counter's count, a level, or a histogram's sample count. An instrument
// nothing has touched reads 0, as does every one on a nil hub.
func (h *Hub) Value(site proto.SiteID, subsystem, name string) int64 {
	if h == nil {
		return 0
	}
	h.syncDropped()
	in := (*h.table.Load())[nameKey(site, subsystem, name)]
	switch {
	case in == nil:
		return 0
	case in.h != nil:
		return int64(in.h.Count())
	}
	return in.v.Load()
}

// Sum adds up the counters named name in subsystem at every site and under
// every suffix: Sum("net", "sent") is every wire message of every kind.
func (h *Hub) Sum(subsystem, name string) int64 {
	if h == nil {
		return 0
	}
	h.syncDropped()
	var n int64
	for k, in := range *h.table.Load() {
		if k.sub == subsystem && k.name == name && in.kind == counter {
			n += in.v.Load()
		}
	}
	return n
}

// sorted returns the table's instruments by site, subsystem and name: the
// order both renderings print.
func (h *Hub) sorted() []*instrument {
	if h == nil {
		return nil
	}
	h.syncDropped()
	table := *h.table.Load()
	ins := make([]*instrument, 0, len(table))
	for _, in := range table {
		ins = append(ins, in)
	}
	slices.SortFunc(ins, func(a, b *instrument) int {
		return cmp.Or(cmp.Compare(a.site, b.site), strings.Compare(a.sub, b.sub), strings.Compare(a.name, b.name))
	})
	return ins
}

// WriteText renders every instrument as an aligned table sorted by site,
// subsystem and name ("site3/txn/commit.user  counter  4"), so the same
// counts always print the same bytes. A nil hub prints the header alone.
func (h *Hub) WriteText(w io.Writer) error {
	ins := h.sorted()
	paths := make([]string, len(ins))
	width := len("metric")
	for i, in := range ins {
		site := "cluster"
		if in.site != 0 {
			site = "site" + strconv.Itoa(int(in.site))
		}
		paths[i] = site + "/" + in.sub + "/" + in.name
		width = max(width, len(paths[i]))
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-7s  %s\n", width, "metric", "kind", "value"); err != nil {
		return err
	}
	for i, in := range ins {
		val := strconv.FormatInt(in.v.Load(), 10)
		if in.h != nil {
			n, sum, hi, p50, p95, p99 := in.h.Summary()
			mean := "0"
			if n > 0 {
				mean = fmt.Sprintf("%.2f", float64(sum)/float64(n))
			}
			val = fmt.Sprintf("count=%d sum=%d max=%d mean=%s p50=%d p95=%d p99=%d", n, sum, hi, mean, p50, p95, p99)
		}
		if _, err := fmt.Fprintf(w, "%-*s  %-7s  %s\n", width, paths[i], textKinds[in.kind], val); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes one name segment for a Prometheus metric name: every
// run of characters outside [a-zA-Z0-9_] collapses to a single underscore.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastUnderscore := false
	for _, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		if r == '_' && lastUnderscore {
			continue
		}
		lastUnderscore = r == '_'
		b.WriteRune(r)
	}
	return b.String()
}

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4). Each instrument joins the family
// "sr_<subsystem>_<name>", with a "_total" suffix for counters, labeled by
// site ("cluster" for site 0); names that sanitize alike share one TYPE
// header. Counters and levels are single samples; histograms are summaries
// with p50/p95/p99 quantile samples plus _sum and _count. Families are sorted
// by name and sites within a family by id, so equal states render
// byte-identically. A nil hub renders the empty document.
func (h *Hub) WritePrometheus(w io.Writer) error {
	var names []string
	families := make(map[string][]*instrument)
	for _, in := range h.sorted() {
		fam := "sr_" + promName(in.sub) + "_" + promName(in.name)
		if in.kind == counter {
			fam += "_total"
		}
		if families[fam] == nil {
			names = append(names, fam)
		}
		families[fam] = append(families[fam], in)
	}
	slices.Sort(names)

	for _, fam := range names {
		ins := families[fam]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, promTypes[ins[0].kind]); err != nil {
			return err
		}
		for _, in := range ins {
			site := "cluster"
			if in.site != 0 {
				site = strconv.Itoa(int(in.site))
			}
			var err error
			if in.h == nil {
				_, err = fmt.Fprintf(w, "%s{site=%q} %d\n", fam, site, in.v.Load())
			} else {
				// A summary family admits only quantile samples plus _sum
				// and _count; the observed max has no legal series here.
				n, sum, _, p50, p95, p99 := in.h.Summary()
				_, err = fmt.Fprintf(w, "%s{site=%q,quantile=\"0.5\"} %d\n%s{site=%q,quantile=\"0.95\"} %d\n%s{site=%q,quantile=\"0.99\"} %d\n%s_sum{site=%q} %d\n%s_count{site=%q} %d\n",
					fam, site, p50, fam, site, p95, fam, site, p99,
					fam, site, sum, fam, site, n)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
