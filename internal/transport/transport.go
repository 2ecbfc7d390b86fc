// Package transport is the seam between the protocol layers and the wire:
// every physical request a site sends — ROWAA reads and writes, two-phase
// commit, session-number checks, NS-claim broadcasts, probes — crosses a
// Transport.
//
// The seam has three verbs. Send puts a request on the wire and returns a
// Pending; Pending.Wait collects the reply. Post sends a request whose reply
// the sender does not use — the commit decision of a transaction whose
// outcome is already durable — and the serving side writes none. Call is
// Send followed at once by Wait. Local is Send to the sending site itself for
// a caller that serves the request with a typed call of its own: the
// transaction manager, whose own-site operations box no message.
//
// Two implementations exist. internal/netsim is the in-process simulator
// (latency, loss, partitions, byte-deterministic chaos traces); it carries
// messages as plain Go values, never serializes, and completes every request
// before Send or Post returns. internal/transport/tcpnet is a real
// length-prefixed TCP transport that frames the same messages with the
// internal/proto wire codec, so each site can run as its own OS process
// (cmd/srnode); its Send returns as soon as the frame is written.
//
// The package also owns the fan-out loop. Multi-replica phases (write-all,
// prepare, claim broadcasts) go through Fanout, which sends to every target
// in order and then collects every reply, all on the calling goroutine:
// over tcpnet the replicas work at the same time and the round costs the
// slowest of them, over netsim each request is complete before the next is
// sent, so a seed produces one totally ordered event stream. See DESIGN.md
// §10.
package transport

import (
	"context"

	"siterecovery/internal/proto"
)

// Handler processes one inbound message at a site and returns the reply.
// Both the simulator and the TCP transport deliver into a Handler.
type Handler func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error)

// Transport carries requests between sites. Transport-level failures are
// proto.ErrSiteDown and proto.ErrDropped; any other error comes from the
// remote handler and is part of the protocol.
type Transport interface {
	// Send starts one request/response exchange and returns without waiting
	// for the reply. A request to the sending site itself goes to its own
	// handler without touching the wire.
	Send(ctx context.Context, from, to proto.SiteID, msg proto.Message) Pending
	// Post delivers msg for its effect only: the remote handler runs and no
	// reply comes back. A nil error means the request was accepted for
	// delivery — sent, or queued on a live connection to go with the next
	// frame to that site — not that it was served.
	Post(ctx context.Context, from, to proto.SiteID, msg proto.Message) error
	// Call is Send followed by Wait.
	Call(ctx context.Context, from, to proto.SiteID, msg proto.Message) (proto.Message, error)
	// Local starts a request to the sending site itself that w serves: a
	// direct typed call on the site's own handler, so no message is boxed,
	// framed or counted, as on both transports' local bus. The transport
	// decides when w runs, as it does for a Send to itself: the simulator
	// at once, so a fan-out's requests stay in target order; tcpnet when
	// the request is waited for, after the peers' frames are out.
	Local(w Waiter) Pending
}

// Waiter is the transport's half of a Pending that is still in flight.
type Waiter interface {
	// Wait blocks for the reply. It is called at most once.
	Wait() (proto.Message, error)
}

// Pending is a request that was sent and whose reply has not been collected.
// Wait must be called exactly once, on the goroutine that sent. A Pending is
// either complete — the outcome was known when Send returned, as always on
// netsim and on a tcpnet send that failed — or in flight.
type Pending struct {
	w      Waiter
	inline bool
	resp   proto.Message
	err    error
}

// Done returns a complete Pending carrying an outcome.
func Done(resp proto.Message, err error) Pending { return Pending{resp: resp, err: err} }

// InFlight returns a Pending whose request is with a peer; w collects the
// reply.
func InFlight(w Waiter) Pending { return Pending{w: w} }

// Inline returns a Pending whose request has not run yet: w serves it on the
// waiting goroutine. Fanout waits for these before any InFlight one, so the
// local work overlaps the peers'.
func Inline(w Waiter) Pending { return Pending{w: w, inline: true} }

// Complete reports whether Wait returns without blocking or doing work.
func (p Pending) Complete() bool { return p.w == nil }

// Wait returns the reply.
func (p Pending) Wait() (proto.Message, error) {
	if p.w == nil {
		return p.resp, p.err
	}
	return p.w.Wait()
}

// Result is one target's outcome in a fan-out.
type Result struct {
	Site proto.SiteID
	Resp proto.Message
	Err  error
}

// Fanout sends to every target in order, then collects every reply, and
// returns the results indexed like targets, in results' array when it has
// room. It starts no goroutine.
//
// reply, when non-nil, is called with each result as it is collected, on the
// calling goroutine: at once for a send that completed, otherwise when it is
// waited for. It may rewrite the result — the bookkeeping a sender does on a
// reply, such as folding a commit sequence number or turning a "no" vote
// into an error — and its answer for a result that was complete when its
// send returned decides whether the loop stops there, leaving the results of
// the targets not yet sent zero-valued (Site 0). On netsim every result is
// complete at send time, so a halt reproduces the message counts of a loop
// that calls one target at a time; on tcpnet only a send that could not be
// written completes that early — replies arrive after every frame is out,
// when there is nothing left to halt.
func Fanout(results []Result, targets []proto.SiteID, send func(to proto.SiteID) Pending, reply func(*Result) bool) []Result {
	results = append(results[:0], make([]Result, len(targets))...)
	var buf [4]Pending // rounds are a handful of sites; larger ones allocate
	pending := buf[:0]
	if len(targets) > len(buf) {
		pending = make([]Pending, 0, len(targets))
	}
	inFlight := 0
	for i, site := range targets {
		p := send(site)
		pending = append(pending, p)
		results[i].Site = site
		if !p.Complete() {
			inFlight++
			continue
		}
		results[i].Resp, results[i].Err = p.Wait()
		if reply != nil && reply(&results[i]) {
			break
		}
	}
	if inFlight == 0 {
		return results
	}
	for _, inline := range [2]bool{true, false} {
		for i, p := range pending {
			if !p.Complete() && p.inline == inline {
				results[i].Resp, results[i].Err = p.Wait()
				if reply != nil {
					reply(&results[i])
				}
			}
		}
	}
	return results
}
