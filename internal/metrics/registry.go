package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Key names one instrument in a Registry: which site it belongs to (0 means
// cluster-wide), which subsystem emits it, and the metric name. The textual
// form is "site3/txn/commit" ("cluster/..." for site 0).
type Key struct {
	Site      int
	Subsystem string
	Name      string
}

// String implements fmt.Stringer.
func (k Key) String() string {
	site := "cluster"
	if k.Site != 0 {
		site = fmt.Sprintf("site%d", k.Site)
	}
	return site + "/" + k.Subsystem + "/" + k.Name
}

// less orders keys for deterministic export: by site, subsystem, name.
func (k Key) less(o Key) bool {
	if k.Site != o.Site {
		return k.Site < o.Site
	}
	if k.Subsystem != o.Subsystem {
		return k.Subsystem < o.Subsystem
	}
	return k.Name < o.Name
}

// Gauge is a settable level (queue depths, marked-copy counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the level.
func (g *Gauge) Value() int64 { return g.v.Load() }

const (
	// subBuckets is the number of linear sub-buckets per power of two: a
	// quantile read off a bucket's upper bound overstates the sample by at
	// most 1/subBuckets (12.5%).
	subBits    = 3
	subBuckets = 1 << subBits
	// numBuckets covers [0, 2^42): 73 minutes of nanoseconds. Larger samples
	// share the last bucket, which reports the observed max.
	numBuckets = 40 * subBuckets
)

// IntHist is a log-linear histogram over integer samples (attempt counts,
// batch sizes, microseconds, nanoseconds): values below subBuckets get a
// bucket each, and every power of two above is split into subBuckets equal
// buckets. It carries no time unit, so its exports are deterministic
// whenever its inputs are. The zero value is ready to use.
type IntHist struct {
	mu      sync.Mutex
	buckets [numBuckets]uint64
	count   uint64
	sum     int64
	max     int64
}

// bucketFor maps a sample to its bucket index.
func bucketFor(v int64) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return min((shift+1)<<subBits+int(v>>shift)&(subBuckets-1), numBuckets-1)
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i>>subBits - 1
	return int64(subBuckets+i&(subBuckets-1)+1)<<shift - 1
}

// Observe records one sample.
func (h *IntHist) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples.
func (h *IntHist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile reports an upper bound for the q-quantile (0 < q <= 1) from the
// bucket boundaries, never above Max, or 0 with no samples. Like everything
// else about IntHist it is deterministic whenever the inputs are.
func (h *IntHist) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *IntHist) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			// The observed max is the tighter answer whenever it lies
			// below the bucket's bound, and the only one for the overflow
			// bucket, which has no meaningful bound.
			if upper := bucketUpper(i); i < numBuckets-1 && upper < h.max {
				return upper
			}
			return h.max
		}
	}
	return h.max
}

// Sum reports the total of all samples.
func (h *IntHist) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max reports the largest sample.
func (h *IntHist) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Registry is a named collection of instruments keyed by site/subsystem/name.
// Lookups get-or-create, so emitting code never registers up front. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*IntHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*IntHist),
	}
}

// Counter returns the counter for key, creating it on first use.
func (r *Registry) Counter(site int, subsystem, name string) *Counter {
	k := Key{Site: site, Subsystem: subsystem, Name: name}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for key, creating it on first use.
func (r *Registry) Gauge(site int, subsystem, name string) *Gauge {
	k := Key{Site: site, Subsystem: subsystem, Name: name}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// IntHist returns the integer histogram for key, creating it on first use.
func (r *Registry) IntHist(site int, subsystem, name string) *IntHist {
	k := Key{Site: site, Subsystem: subsystem, Name: name}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &IntHist{}
		r.hists[k] = h
	}
	return h
}

// SampleKind tags what a Sample was read from.
type SampleKind string

// Sample kinds.
const (
	KindCounter SampleKind = "counter"
	KindGauge   SampleKind = "gauge"
	KindHist    SampleKind = "hist"
)

// Sample is one instrument's state at snapshot time. Counters use Count;
// gauges use Sum (the level); histograms use Count, Sum, Max, and the
// bucket-bound percentiles P50/P95/P99.
type Sample struct {
	Kind  SampleKind
	Count uint64
	Sum   int64
	Max   int64
	// P50, P95, and P99 are bucket-upper-bound quantiles for histograms
	// (zero for other kinds). Like Max they are levels, not deltas: Diff
	// keeps the current value because quantiles of a difference cannot be
	// derived from two summaries.
	P50, P95, P99 int64
}

// Snapshot is a point-in-time copy of a registry's instruments.
type Snapshot map[Key]Sample

// Snapshot reads every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		out[k] = Sample{Kind: KindCounter, Count: c.Value()}
	}
	for k, g := range r.gauges {
		out[k] = Sample{Kind: KindGauge, Sum: g.Value()}
	}
	for k, h := range r.hists {
		h.mu.Lock()
		out[k] = Sample{
			Kind: KindHist, Count: h.count, Sum: h.sum, Max: h.max,
			P50: h.quantileLocked(0.50), P95: h.quantileLocked(0.95), P99: h.quantileLocked(0.99),
		}
		h.mu.Unlock()
	}
	return out
}

// Diff subtracts prev from s: counter and histogram counts/sums become
// deltas, gauges and maxima keep their current level. Entries whose delta is
// entirely zero are dropped, so a diff reads as "what changed".
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, cur := range s {
		d := cur
		if p, ok := prev[k]; ok && cur.Kind != KindGauge {
			d.Count = cur.Count - p.Count
			d.Sum = cur.Sum - p.Sum
		}
		if d.Count == 0 && d.Sum == 0 && d.Max == 0 {
			continue
		}
		out[k] = d
	}
	return out
}

// Keys returns the snapshot's keys in deterministic order.
func (s Snapshot) Keys() []Key {
	keys := make([]Key, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// WriteText renders the snapshot as an aligned table, sorted by key, so the
// same counts always produce byte-identical output.
func (s Snapshot) WriteText(w io.Writer) error {
	keys := s.Keys()
	width := len("metric")
	for _, k := range keys {
		if n := len(k.String()); n > width {
			width = n
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-7s  %s\n", width, "metric", "kind", "value"); err != nil {
		return err
	}
	for _, k := range keys {
		v := s[k]
		var val string
		switch v.Kind {
		case KindCounter:
			val = fmt.Sprintf("%d", v.Count)
		case KindGauge:
			val = fmt.Sprintf("%d", v.Sum)
		case KindHist:
			mean := "0"
			if v.Count > 0 {
				mean = fmt.Sprintf("%.2f", float64(v.Sum)/float64(v.Count))
			}
			val = fmt.Sprintf("count=%d sum=%d max=%d mean=%s p50=%d p95=%d p99=%d",
				v.Count, v.Sum, v.Max, mean, v.P50, v.P95, v.P99)
		}
		if _, err := fmt.Fprintf(w, "%-*s  %-7s  %s\n", width, k, v.Kind, val); err != nil {
			return err
		}
	}
	return nil
}

// jsonSample is the wire form of one exported instrument.
type jsonSample struct {
	Metric string     `json:"metric"`
	Kind   SampleKind `json:"kind"`
	Count  uint64     `json:"count,omitempty"`
	Sum    int64      `json:"sum,omitempty"`
	Max    int64      `json:"max,omitempty"`
	P50    int64      `json:"p50,omitempty"`
	P95    int64      `json:"p95,omitempty"`
	P99    int64      `json:"p99,omitempty"`
}

// WriteJSON renders the snapshot as a JSON array sorted by key.
func (s Snapshot) WriteJSON(w io.Writer) error {
	out := make([]jsonSample, 0, len(s))
	for _, k := range s.Keys() {
		v := s[k]
		out = append(out, jsonSample{
			Metric: k.String(), Kind: v.Kind, Count: v.Count, Sum: v.Sum, Max: v.Max,
			P50: v.P50, P95: v.P95, P99: v.P99,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// promName sanitizes one key segment for a Prometheus metric name: every
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

// promFamily names the exposition family for a key: "sr_<subsystem>_<name>"
// with a "_total" suffix for counters, per the Prometheus conventions.
func promFamily(k Key, kind SampleKind) string {
	name := "sr_" + promName(k.Subsystem) + "_" + promName(k.Name)
	if kind == KindCounter {
		return name + "_total"
	}
	return name
}

// promSite renders the site label value ("cluster" for site 0).
func promSite(site int) string {
	if site == 0 {
		return "cluster"
	}
	return fmt.Sprintf("%d", site)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples labeled by
// site, histograms as summaries with p50/p95/p99 quantile samples plus
// _sum/_count/_max series. Families are sorted by name and sites within a
// family by id, so equal snapshots render byte-identically.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	// Group keys into exposition families; distinct subsystem/name pairs
	// that sanitize to the same family share one TYPE header.
	type entry struct {
		key Key
		v   Sample
	}
	families := make(map[string][]entry)
	kinds := make(map[string]SampleKind)
	for k, v := range s {
		fam := promFamily(k, v.Kind)
		families[fam] = append(families[fam], entry{k, v})
		kinds[fam] = v.Kind
	}
	names := make([]string, 0, len(families))
	for fam := range families {
		names = append(names, fam)
	}
	sort.Strings(names)

	for _, fam := range names {
		entries := families[fam]
		sort.Slice(entries, func(i, j int) bool { return entries[i].key.less(entries[j].key) })
		kind := kinds[fam]
		promKind := map[SampleKind]string{KindCounter: "counter", KindGauge: "gauge", KindHist: "summary"}[kind]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, promKind); err != nil {
			return err
		}
		for _, e := range entries {
			site := promSite(e.key.Site)
			var err error
			switch kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s{site=%q} %d\n", fam, site, e.v.Count)
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s{site=%q} %d\n", fam, site, e.v.Sum)
			case KindHist:
				// A summary family admits only quantile samples plus _sum
				// and _count; the observed max has no legal series here.
				_, err = fmt.Fprintf(w, "%s{site=%q,quantile=\"0.5\"} %d\n%s{site=%q,quantile=\"0.95\"} %d\n%s{site=%q,quantile=\"0.99\"} %d\n%s_sum{site=%q} %d\n%s_count{site=%q} %d\n",
					fam, site, e.v.P50, fam, site, e.v.P95, fam, site, e.v.P99,
					fam, site, e.v.Sum, fam, site, e.v.Count)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
