// Package netsim is an in-process network connecting the sites of the
// simulated distributed database.
//
// Each site registers a handler; any site can Call any other. Calls incur a
// configurable pseudo-random latency in each direction, may be dropped with
// a configurable probability, and fail with proto.ErrSiteDown when the
// target (or the reply path) is down. Sites run real goroutines, so calls
// interleave exactly as concurrently as the protocol allows.
//
// The simulator models the paper's failure model: fail-stop site crashes are
// the only failure kind, and "site down" is a definitive outcome (there is
// no ambiguity between a slow site and a dead one), which is what entitles
// any site to issue a type-2 control transaction after observing a failure.
package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
)

// Handler processes one inbound message at a site and returns the reply.
type Handler = transport.Handler

// Network is the in-process transport.Transport implementation.
var _ transport.Transport = (*Network)(nil)

// Config tunes the network.
type Config struct {
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
	// MinLatency and MaxLatency bound the one-way delivery delay, sampled
	// uniformly. Both zero means instantaneous delivery.
	MinLatency time.Duration
	MaxLatency time.Duration
	// LossRate is the probability in [0,1) that a direction of a call is
	// dropped. Defaults to 0 (the paper's model has reliable links).
	LossRate float64
	// Seed seeds the latency/loss randomness. Zero means a fixed default,
	// keeping runs reproducible unless the caller opts out.
	Seed int64
	// Obs receives drop/partition events and metrics; nil is a no-op sink.
	Obs *obs.Hub
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxLatency < c.MinLatency {
		c.MaxLatency = c.MinLatency
	}
	return c
}

// Network connects registered sites. Create with New.
type Network struct {
	cfg Config

	// rngMu guards only the latency/loss sampling state, so RNG draws do
	// not serialize against the topology map under mu (see BenchmarkCall).
	rngMu sync.Mutex
	rng   *rand.Rand
	loss  float64

	mu    sync.Mutex
	nodes map[proto.SiteID]*node
}

type node struct {
	handler Handler
	down    bool
	// group is the partition group; sites in different groups cannot
	// communicate. 0 means unpartitioned.
	group int
}

// New returns a network with the given configuration.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		loss:  cfg.LossRate,
		nodes: make(map[proto.SiteID]*node),
	}
}

// SetLossRate changes the drop probability for subsequent calls: the
// chaos engine's loss bursts. Rates outside [0,1) are clamped.
func (n *Network) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		rate = 0.999
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	n.loss = rate
}

// LossRate reports the current drop probability.
func (n *Network) LossRate() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.loss
}

// Register attaches a handler for site. Re-registering replaces the handler.
func (n *Network) Register(site proto.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[site] = &node{handler: h}
}

// SetDown marks a site crashed (true) or rejoined at the network level
// (false). Messages to a down site are refused after the usual latency;
// replies owed to a crashed caller are lost.
func (n *Network) SetDown(site proto.SiteID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[site]; ok {
		nd.down = down
	}
}

// Partition splits the network into groups: sites in different groups see
// each other exactly as crashed (ErrSiteDown) — which is the ambiguity that
// makes partitions dangerous for a protocol whose failure detector assumes
// fail-stop crashes. Sites absent from every group form an implicit final
// group. Call Heal to reconnect.
func (n *Network) Partition(groups ...[]proto.SiteID) {
	n.mu.Lock()
	for _, nd := range n.nodes {
		nd.group = len(groups) + 1 // implicit leftover group
	}
	for i, group := range groups {
		for _, site := range group {
			if nd, ok := n.nodes[site]; ok {
				nd.group = i + 1
			}
		}
	}
	n.mu.Unlock()
	n.cfg.Obs.Partitioned(groupString(groups))
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	for _, nd := range n.nodes {
		nd.group = 0
	}
	n.mu.Unlock()
	n.cfg.Obs.Healed()
}

// groupString renders partition groups deterministically ("[1 2]|[3]").
func groupString(groups [][]proto.SiteID) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		ids := make([]int, len(g))
		for j, s := range g {
			ids[j] = int(s)
		}
		sort.Ints(ids)
		parts[i] = fmt.Sprint(ids)
	}
	return strings.Join(parts, "|")
}

// Sites lists the registered sites in ascending order.
func (n *Network) Sites() []proto.SiteID {
	n.mu.Lock()
	defer n.mu.Unlock()
	sites := make([]proto.SiteID, 0, len(n.nodes))
	for s := range n.nodes {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// Send is Call: the simulator completes every exchange before it returns, so
// a fan-out's requests — and the RNG draws and trace events they cause — come
// in one reproducible order per seed.
func (n *Network) Send(ctx context.Context, from, to proto.SiteID, msg proto.Message) transport.Pending {
	return transport.Done(n.Call(ctx, from, to, msg))
}

// Post is Call with the reply dropped: the same draws, the same events and
// the same failures as an acknowledged request, so a seed's trace does not
// depend on which requests the protocol posts.
func (n *Network) Post(ctx context.Context, from, to proto.SiteID, msg proto.Message) error {
	_, err := n.Call(ctx, from, to, msg)
	return err
}

// Call sends msg from one site to another and waits for the reply. Transport
// failures are proto.ErrSiteDown and proto.ErrDropped; any other error comes
// from the remote handler and is part of the protocol, not the transport.
// A site reaches its own handler over the local bus: no latency, no loss, no
// message counted, whatever the network thinks of the site.
func (n *Network) Call(ctx context.Context, from, to proto.SiteID, msg proto.Message) (proto.Message, error) {
	if from == to {
		n.mu.Lock()
		nd := n.nodes[from]
		n.mu.Unlock()
		if nd == nil {
			return nil, fmt.Errorf("site %v is not registered: %w", from, proto.ErrSiteDown)
		}
		return nd.handler(ctx, from, msg)
	}
	kind := msg.Kind()
	n.cfg.Obs.MsgSent(from, to, kind)

	h, err := n.deliver(ctx, from, to, kind)
	if err != nil {
		return nil, err
	}

	resp, herr := h(ctx, from, msg)

	// The reply path: lost if either endpoint has crashed meanwhile, or to
	// random loss. The handler's side effects stand either way, exactly as
	// on a real network.
	if err := n.replyPath(ctx, from, to, kind); err != nil {
		return nil, err
	}
	if herr != nil {
		return nil, fmt.Errorf("%v->%v %s: %w", from, to, kind, herr)
	}
	return resp, nil
}

// deliver simulates the request path and resolves the target handler.
// A crashed sender emits nothing: its process is dead.
func (n *Network) deliver(ctx context.Context, from, to proto.SiteID, kind string) (Handler, error) {
	n.mu.Lock()
	sender, ok := n.nodes[from]
	senderDown := !ok || sender.down
	n.mu.Unlock()
	if senderDown {
		return nil, fmt.Errorf("send from crashed %v: %w", from, proto.ErrSiteDown)
	}
	if n.lost() {
		n.cfg.Obs.MsgDropped(from, to, kind)
		return nil, proto.ErrDropped
	}
	if err := n.sleep(ctx); err != nil {
		return nil, err
	}
	n.mu.Lock()
	src := n.nodes[from]
	nd, ok := n.nodes[to]
	var h Handler
	partitioned := ok && !nd.down && src != nil &&
		src.group != nd.group && src.group != 0 && nd.group != 0
	if ok && !nd.down && !partitioned {
		h = nd.handler
	}
	n.mu.Unlock()
	if h == nil {
		// A partitioned peer is indistinguishable from a crashed one —
		// deliberately: that ambiguity is why the paper's protocol
		// restricts itself to fail-stop site failures.
		return nil, fmt.Errorf("deliver to %v: %w", to, proto.ErrSiteDown)
	}
	return h, nil
}

// replyPath simulates the response path.
func (n *Network) replyPath(ctx context.Context, from, to proto.SiteID, kind string) error {
	if n.lost() {
		n.cfg.Obs.MsgDropped(to, from, kind)
		return proto.ErrDropped
	}
	if err := n.sleep(ctx); err != nil {
		return err
	}
	n.mu.Lock()
	target, tok := n.nodes[to]
	caller, fok := n.nodes[from]
	partitioned := tok && fok &&
		target.group != caller.group && target.group != 0 && caller.group != 0
	targetDown, callerDown := !tok || target.down, !fok || caller.down
	n.mu.Unlock()
	if targetDown {
		return fmt.Errorf("reply from %v: %w", to, proto.ErrSiteDown)
	}
	if callerDown {
		return fmt.Errorf("reply to crashed %v: %w", from, proto.ErrSiteDown)
	}
	if partitioned {
		return fmt.Errorf("reply across partition %v->%v: %w", to, from, proto.ErrSiteDown)
	}
	return nil
}

func (n *Network) lost() bool {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	if n.loss <= 0 {
		return false
	}
	return n.rng.Float64() < n.loss
}

func (n *Network) sleep(ctx context.Context) error {
	d := n.latency()
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-n.cfg.Clock.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (n *Network) latency() time.Duration {
	if n.cfg.MaxLatency == 0 {
		return 0
	}
	if n.cfg.MaxLatency == n.cfg.MinLatency {
		return n.cfg.MinLatency
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.cfg.MinLatency + time.Duration(n.rng.Int63n(int64(n.cfg.MaxLatency-n.cfg.MinLatency)))
}
