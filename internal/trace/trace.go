// Package trace merges per-site JSONL event exports from a multi-process
// cluster into one causally ordered timeline.
//
// Each srnode process exports its own event stream (obs events, including
// the span start/finish events the TCP transport records). Wall clocks across
// processes are not trusted for ordering; instead the merge builds a
// happens-before graph and topologically sorts it:
//
//   - Within one site's stream, events happen in emission order (a site is a
//     sequential observer of itself).
//   - Across sites, span parentage gives the causal edges: the client side
//     of an RPC starts before its server side starts (the request frame
//     carried the span there), and the server side finishes before the
//     client side finishes (the response frame came back) — the latter only
//     when the client finish is successful, since a client that timed out
//     gave up without observing the server, whose stalled request may be
//     delivered and served long after, and never for a posted span
//     (obs.SpanPosted): no response frame exists, the client side finished
//     when the request was written, and the server side may finish long
//     after that.
//
// Among causally unordered events, the tie-break is (effective Lamport
// commit seq, timestamp, site): span events are stamped with their site's
// high-water Lamport commit sequence, carried forward over unstamped events,
// which orders independent work by how much committed history each site had
// observed — the paper's commit sequence numbers doing double duty as the
// merge clock. Happens-before edges always win over the tie-break: a Lamport
// stamp can only schedule events the graph leaves unordered.
//
// A merge that cannot complete — the edges form a cycle — or whose span
// pairings disagree (two client sides claiming one span, client and server
// sides naming different root transactions) is reported through Violations:
// those are causality bugs in the recorded cluster, exactly what the chaos
// trace invariants gate on.
package trace

import (
	"container/heap"
	"fmt"

	"siterecovery/internal/obs"
)

// Violation flags one causal inconsistency found while merging.
type Violation struct {
	// Kind classifies the violation: "cycle", "duplicate-span-side", or
	// "root-mismatch".
	Kind string `json:"kind"`
	// Detail is a human-readable account naming the events involved.
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Merged is the result of merging N per-site streams.
type Merged struct {
	// Events is the single causally ordered timeline. On a cycle violation
	// it holds the orderable prefix; the unorderable remainder is reported.
	Events []obs.Event
	// Streams is how many input streams were merged.
	Streams int
	// Violations lists every causal inconsistency found. A clean merge has
	// none.
	Violations []Violation
}

// node is one event's position in the happens-before graph.
type node struct {
	stream, idx int
	ev          obs.Event
	// lamport is the effective Lamport stamp: the running maximum of span
	// stamps seen earlier in the same stream, so unstamped events (txn
	// commits, crashes) inherit their site's latest observed commit seq.
	lamport uint64
	succ    []int
	indeg   int
}

// Merge builds the happens-before graph over the given per-site streams and
// returns the topologically sorted timeline. Streams must each be in their
// site's emission order (which JSONL exports are by construction).
func Merge(streams ...[]obs.Event) Merged {
	m := Merged{Streams: len(streams)}
	var nodes []*node
	for si, evs := range streams {
		var lam uint64
		for i, e := range evs {
			if e.Lamport > lam {
				lam = e.Lamport
			}
			nodes = append(nodes, &node{stream: si, idx: i, ev: e, lamport: lam})
		}
	}

	// Index nodes globally; local edges chain each stream.
	id := make(map[[2]int]int, len(nodes))
	for gi, n := range nodes {
		id[[2]int{n.stream, n.idx}] = gi
	}
	addEdge := func(from, to int) {
		nodes[from].succ = append(nodes[from].succ, to)
		nodes[to].indeg++
	}
	for gi, n := range nodes {
		if next, ok := id[[2]int{n.stream, n.idx + 1}]; ok {
			addEdge(gi, next)
		}
	}

	// Pair span sides across streams and add the cross edges.
	type sideNodes struct {
		start, finish int // global node index, -1 when unseen
		root          uint64
		seen          bool
	}
	type pairing struct{ client, server sideNodes }
	pairs := make(map[uint64]*pairing)
	for gi, n := range nodes {
		side, _, _, ok := obs.SpanSide(n.ev)
		if !ok || n.ev.Span == 0 {
			continue
		}
		p := pairs[n.ev.Span]
		if p == nil {
			p = &pairing{client: sideNodes{start: -1, finish: -1}, server: sideNodes{start: -1, finish: -1}}
			pairs[n.ev.Span] = p
		}
		s := &p.client
		if side == obs.SideServer {
			s = &p.server
		}
		switch n.ev.Type {
		case obs.EvSpanStart:
			if s.start >= 0 {
				m.Violations = append(m.Violations, Violation{
					Kind: "duplicate-span-side",
					Detail: fmt.Sprintf("span %x has two %s starts (site%d and site%d)",
						n.ev.Span, side, nodes[s.start].ev.Site, n.ev.Site),
				})
				continue
			}
			s.start = gi
		case obs.EvSpanFinish:
			if s.finish < 0 {
				s.finish = gi
			}
		}
		s.root, s.seen = uint64(n.ev.Txn), true
	}
	for span, p := range pairs {
		if p.client.seen && p.server.seen && p.client.root != p.server.root {
			m.Violations = append(m.Violations, Violation{
				Kind: "root-mismatch",
				Detail: fmt.Sprintf("span %x: client side under root txn%d, server side under root txn%d",
					span, p.client.root, p.server.root),
			})
		}
		if p.client.start >= 0 && p.server.start >= 0 {
			addEdge(p.client.start, p.server.start) // request frame delivered
		}
		if p.server.finish >= 0 && p.client.finish >= 0 {
			// The response edge holds only when the client actually received
			// the response: a client finish carrying a failure reason
			// (timeout, site-down) means the caller gave up on its own, while
			// the stalled request could still be delivered and served
			// arbitrarily late — ordering that server finish before the
			// client's local timeout would be false causality (and, under
			// byte-stream faults, produces real cycles). A posted request has
			// no response at all.
			fin := nodes[p.client.finish].ev
			if _, _, reason, ok := obs.SpanSide(fin); ok && reason == "" && !obs.SpanPosted(fin) {
				addEdge(p.server.finish, p.client.finish) // response frame returned
			}
		}
	}

	// Kahn's algorithm with a priority queue: among the causally ready
	// events, emit the one with the smallest (lamport, timestamp, stream,
	// idx). The final two keys make the merge deterministic for identical
	// inputs.
	pq := &nodeHeap{nodes: nodes}
	for gi, n := range nodes {
		if n.indeg == 0 {
			heap.Push(pq, gi)
		}
	}
	m.Events = make([]obs.Event, 0, len(nodes))
	for pq.Len() > 0 {
		gi := heap.Pop(pq).(int)
		m.Events = append(m.Events, nodes[gi].ev)
		for _, s := range nodes[gi].succ {
			nodes[s].indeg--
			if nodes[s].indeg == 0 {
				heap.Push(pq, s)
			}
		}
	}
	if len(m.Events) < len(nodes) {
		stuck := 0
		var sample string
		for _, n := range nodes {
			if n.indeg > 0 {
				if stuck == 0 {
					sample = fmt.Sprintf("first stuck: site%d %s", n.ev.Site, n.ev.Type)
				}
				stuck++
			}
		}
		m.Violations = append(m.Violations, Violation{
			Kind:   "cycle",
			Detail: fmt.Sprintf("%d events form a happens-before cycle (%s)", stuck, sample),
		})
	}
	return m
}

// nodeHeap orders ready node indices by (effective lamport, timestamp,
// stream, idx).
type nodeHeap struct {
	nodes []*node
	ready []int
}

func (h *nodeHeap) Len() int { return len(h.ready) }

func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[h.ready[i]], h.nodes[h.ready[j]]
	if a.lamport != b.lamport {
		return a.lamport < b.lamport
	}
	if !a.ev.At.Equal(b.ev.At) {
		return a.ev.At.Before(b.ev.At)
	}
	if a.stream != b.stream {
		return a.stream < b.stream
	}
	return a.idx < b.idx
}

func (h *nodeHeap) Swap(i, j int) { h.ready[i], h.ready[j] = h.ready[j], h.ready[i] }

func (h *nodeHeap) Push(x any) { h.ready = append(h.ready, x.(int)) }

func (h *nodeHeap) Pop() any {
	n := len(h.ready)
	x := h.ready[n-1]
	h.ready = h.ready[:n-1]
	return x
}
