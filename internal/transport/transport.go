// Package transport is the seam between the protocol layers and the wire:
// every physical request a site sends — ROWAA reads and writes, two-phase
// commit, session-number checks, NS-claim broadcasts, probes — crosses a
// Transport.
//
// Two implementations exist. internal/netsim is the in-process simulator
// (latency, loss, partitions, byte-deterministic chaos traces); it carries
// messages as plain Go values and never serializes. internal/transport/tcpnet
// is a real length-prefixed TCP transport that frames the same messages with
// the internal/proto wire codec, so each site can run as its own OS process
// (cmd/srnode).
//
// The package also owns the fan-out policy. Multi-replica phases (write-all,
// prepare, commit, claim broadcasts) go through Fanout, which runs the calls
// concurrently — multi-replica latency is the max of the replicas, not the
// sum — unless the transport declares itself sequential. The simulator
// always does, because the deterministic harnesses (scripted srsim, the
// chaos engine) require one totally ordered event stream per seed; tcpnet
// never does. See DESIGN.md §10.
package transport

import (
	"context"
	"sync"

	"siterecovery/internal/proto"
)

// Handler processes one inbound message at a site and returns the reply.
// Both the simulator and the TCP transport deliver into a Handler.
type Handler func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error)

// Transport carries one request/response exchange between two sites.
// Transport-level failures are proto.ErrSiteDown and proto.ErrDropped; any
// other error comes from the remote handler and is part of the protocol.
type Transport interface {
	Call(ctx context.Context, from, to proto.SiteID, msg proto.Message) (proto.Message, error)
}

// Sequentialer is implemented by transports whose fan-outs must run one
// call at a time. The network simulator reports true: deterministic
// harnesses need the calls — and therefore the RNG draws and trace events
// they cause — in one reproducible order.
type Sequentialer interface {
	SequentialFanout() bool
}

// IsSequential reports whether fan-outs through t must be serialized.
// Transports that do not implement Sequentialer (such as tcpnet) fan out
// concurrently.
func IsSequential(t Transport) bool {
	s, ok := t.(Sequentialer)
	return ok && s.SequentialFanout()
}

// Result is one target's outcome in a fan-out.
type Result struct {
	Site proto.SiteID
	Resp proto.Message
	Err  error
}

// Fanout issues call once per target and returns the results indexed like
// targets. With sequential false the calls run concurrently and all targets
// are always attempted. With sequential true the calls run one at a time in
// target order, and haltOn — when non-nil — is consulted after each failure:
// returning true stops the fan-out early, leaving the remaining results
// zero-valued (Site 0). Callers use haltOn to preserve the short-circuit
// message counts of a sequential loop; it is irrelevant to the parallel
// path, where every call is already in flight.
func Fanout(sequential bool, targets []proto.SiteID, call func(to proto.SiteID) (proto.Message, error), haltOn func(error) bool) []Result {
	results := make([]Result, len(targets))
	if sequential {
		for i, site := range targets {
			resp, err := call(site)
			results[i] = Result{Site: site, Resp: resp, Err: err}
			if err != nil && haltOn != nil && haltOn(err) {
				break
			}
		}
		return results
	}
	var wg sync.WaitGroup
	for i, site := range targets {
		wg.Add(1)
		go func(i int, site proto.SiteID) {
			defer wg.Done()
			resp, err := call(site)
			results[i] = Result{Site: site, Resp: resp, Err: err}
		}(i, site)
	}
	wg.Wait()
	return results
}

// FirstError returns the first non-nil error in target order, or nil.
// Fan-out callers use it so the reported failure does not depend on
// goroutine scheduling.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
