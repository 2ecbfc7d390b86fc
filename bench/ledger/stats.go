package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median of xs; 0 for none. The mean of the middle pair when len is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the exact order statistic: the smallest sample with at
// least p of the samples at or below it (nearest rank). No buckets, so it can
// never exceed the observed maximum.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// windowCounts cuts [start, start+n seconds) into n one-second windows and
// counts the commits ending in each. Commits past the last window (the
// transactions in flight when the phase ended) belong to none.
func windowCounts(start time.Time, n int, commits []commit) []float64 {
	counts := make([]float64, n)
	for _, c := range commits {
		if w := int(c.end.Sub(start) / time.Second); w >= 0 && w < n && !c.end.Before(start) {
			counts[w]++
		}
	}
	return counts
}

// maxGap is the longest stretch without a commit inside [start, start+span),
// counting the stretch from start to the first commit and from the last
// commit to the end of the span.
func maxGap(start time.Time, span time.Duration, commits []commit) time.Duration {
	ends := make([]time.Duration, 0, len(commits))
	for _, c := range commits {
		if d := c.end.Sub(start); d >= 0 && d < span {
			ends = append(ends, d)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var gap, prev time.Duration
	for _, e := range append(ends, span) {
		if e-prev > gap {
			gap = e - prev
		}
		prev = e
	}
	return gap
}

// parseProcStat extracts utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no ')' in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseHostStat extracts the steal column and the sum of all columns, in
// clock ticks, from the aggregate "cpu" line that opens /proc/stat. The
// guest columns are already counted inside user and nice.
func parseHostStat(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: odd first line %q", line)
	}
	for i, field := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// clockTick is USER_HZ. Linux fixes it at 100 for every architecture Go
// supports, and cgo's sysconf is not available here.
const clockTick = 10 * time.Millisecond

// cpuTime is the CPU a live process has used so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(string(b))
	return time.Duration(ticks) * clockTick, err
}

// parseStatusKiB extracts a "Vm…:  N kB" field, in KiB, from the text of
// /proc/<pid>/status.
func parseStatusKiB(status, field string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: odd %s line %q", field, line)
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// rssKiB is a live process's resident set (VmRSS).
func rssKiB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKiB(string(b), "VmRSS")
}

// parseProm sums, over all label sets, every sample of a Prometheus text
// exposition whose name ends in _sum, _count or _total. Quantile samples are
// dropped on purpose: srnode's are power-of-two bucket edges.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_sum") && !strings.HasSuffix(name, "_count") && !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4) gives
// them (the "exclusive" method). It is the driver's noise measure.
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 quantiles, exclusive method
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return 0
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
