// Package tcpnet is the real-network implementation of transport.Transport:
// length-prefixed binary frames over TCP, each a small header followed by an
// internal/proto message in its wire encoding. It lets each site of the
// replicated database run as its own OS process (cmd/srnode) while the
// protocol layers above — transaction manager, session manager, recovery —
// stay unchanged.
//
// Requests are multiplexed: each site keeps ONE connection per peer, and
// every request frame carries a transport-assigned request ID under which its
// response frame (which may arrive out of order) is routed back. Send writes
// the request frame and returns; the reply is collected by Pending.Wait, so
// one goroutine can have a request outstanding at every peer and a fan-out
// round costs one write per remote target and no goroutine. A request to the
// site itself is not framed at all: its Pending runs the local handler (or,
// through Local, the sender's own typed call) on the goroutine that waits for
// it. A request's client side, its reply channel included, is pooled: a
// steady stream of calls allocates none. Post sets the one-way bit in the
// request header: the serving side runs the handler and writes no response
// frame, and the sender registers nothing to wait on. A peer that answers a
// posted request anyway is harmless — a response nobody is registered for
// is dropped by whoever reads it. Post does not write its frame either: it
// queues it in the peer connection's outbox, and the next frame written to
// that peer carries the outbox ahead of itself in the same write. Nothing
// waits on a lone post: the transport's one sweep (below) writes an outbox
// whose oldest post has waited postBound, so a post no frame carries leaves
// within postBound + sweepTick. A site that must wait for a posted decision
// asks for it (AskPeers): a one-way ask frame to every peer, and a peer that
// reads one writes its outbox to the asker at once.
//
// No goroutine reads an outbound connection: a caller in Wait reads its own
// reply. The connection's read side goes with a one-slot token. A waiter that
// takes it reads frames until its own response arrives, hands every other
// caller's to that caller's channel, and puts the token back; a waiter that
// finds it taken waits for its channel, the token, its deadline or its
// context. The holder records its deadline and context on the connection,
// and one sweep per transport, every sweepTick while anybody reads, moves
// the read deadline of a holder whose deadline passed or whose context is
// done into the past. If a read ends between frames the holder gives up and
// passes the token on; inside a frame, the connection is retired and every
// call waiting on it fails. A write sets a write deadline only when the
// socket cannot take it at once. So a call that neither waits to write nor
// gives up arms no runtime timer (DESIGN §10).
// Since nobody watches an idle connection, a write to one that nobody is
// reading first peeks at it (rawio.PeerClosed), and a connection its peer
// has closed is redialed instead of written into.
//
// The serving side serves a frame on the goroutine that read it: no hand-off,
// no wake-up per frame. The first Done() on the handler's context — where
// lockmgr.Acquire's wait and a nested call's Wait arrive before they block —
// passes the connection's read side to a fresh goroutine, as does a request
// frame with more request bytes already buffered behind it; a posted frame
// is served inline even then, so a decision carried ahead of the next
// request releases its locks before that request asks for any. So a handler
// that waits on its context never blocks later requests on the same
// connection; one that blocks without consulting it (a bare channel
// receive, a sleep) holds up every frame behind it. The context carries the
// caller's deadline but arms its timer and its registration with the
// transport's base context only when asked for Done.
//
// Every connection, accepted or dialed, is wrapped by rawio.Wrap where it is
// made, so frames are read and written with raw non-blocking syscalls that
// never wake the runtime's sysmon thread (DESIGN §10).
//
// Failure semantics follow the paper's fail-stop model: a connection refused
// (after brief retries, to ride over peer startup) or any transport-level
// I/O failure surfaces as proto.ErrSiteDown, exactly what the simulator
// reports for a crashed site. Handler errors cross the wire as
// proto.WireError, so errors.Is against the protocol sentinels keeps working
// across processes.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/rawio"
	"siterecovery/internal/transport"
)

// maxFrame bounds a single frame; larger frames indicate a corrupt stream.
const maxFrame = 1 << 20

// postBound is how long a posted frame waits in its connection's outbox for
// a later frame to carry it before the transport's sweep writes it, at the
// first sweep after it has waited this long. On a loaded cluster nearly
// every post is carried well inside it; nobody waits on the rest except a
// site that asks (DESIGN §10, "The outbox").
const postBound = time.Millisecond

// sweepTick is how often the transport's sweep runs while a token holder
// reads or an outbox holds posts: a call whose deadline passes, or whose
// context is done, while it reads gives up at most this long after (DESIGN
// §10, "Client side"), and a post no frame carries leaves at most this long
// after postBound.
const sweepTick = 10 * time.Millisecond

// Config assembles a TCP transport for one site.
type Config struct {
	// Self is this site's ID; Call validates that requests originate here.
	Self proto.SiteID
	// Addrs maps every site (including Self) to its listen address.
	Addrs map[proto.SiteID]string
	// Listener optionally overrides listening on Addrs[Self] — tests
	// pre-bind port 0 so the registry of addresses is known up front.
	Listener net.Listener
	// Handler serves inbound requests. It may also be installed later with
	// SetHandler (the node wires its data manager after the transport
	// exists, breaking the construction cycle).
	Handler transport.Handler
	// DialTimeout bounds one dial attempt. Defaults to 500ms.
	DialTimeout time.Duration
	// DialRetries is how many times a refused dial is retried before the
	// peer is declared down. Defaults to 3.
	DialRetries int
	// DialRetryWait separates refused-dial retries. Defaults to 50ms.
	DialRetryWait time.Duration
	// CallTimeout bounds one request/response exchange when the caller's
	// context carries no earlier deadline. Defaults to 5s.
	CallTimeout time.Duration
	// Obs, when non-nil, records distributed-tracing span events (client
	// side in Send and Post, server side in dispatch) and per-kind RPC
	// metrics. The span context read from the caller's context via
	// obs.SpanFrom is propagated inside the request frame, so the server
	// side of a span shares its ID and root transaction with the client
	// side. A nil hub costs nothing and sends no trace block.
	Obs *obs.Hub
	// Lamport, when non-nil, supplies the site's high-water Lamport commit
	// sequence; span events are stamped with it so a causal merge across
	// sites can order them by (Lamport, happens-before). The hub reads it in
	// the step that sequences each span event, so it must not take a lock
	// held by anyone emitting into that hub.
	Lamport func() uint64
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.DialRetries == 0 {
		c.DialRetries = 3
	}
	if c.DialRetryWait == 0 {
		c.DialRetryWait = 50 * time.Millisecond
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 5 * time.Second
	}
	return c
}

// Frame layout. Every frame is a 4-byte big-endian payload length and the
// payload; a payload is a 1-byte header length, the header, and the body,
// which runs to the end of the frame:
//
//	request header   uvarint id | varint from | varint budget_us | flags
//	                 [uvarint root | uvarint span | uvarint parent | varint origin]
//	request body     the proto message (proto.AppendMessage)
//	response header  uvarint id | status (0 ok, 1 error)
//	response body    the proto reply message, or a proto.WireError
//
// The bracketed trace block is present when flags has flagTraced; a request
// with flagOneWay gets no response frame. A one-way request with flagAsk and
// an empty body is an ask: the serving side writes its outbox to the sender
// and dispatches nothing (a build without the bit fails to decode the empty
// body and, one-way, answers nothing). Header and body are each delimited,
// and their decoders ignore bytes past the fields they know, so a newer peer
// may append fields to either (proto/codec.go states the rule); nothing is
// ever inserted or reordered.

const (
	flagTraced = 1 << iota
	flagOneWay
	flagAsk
)

// reqHeader is the decoded request header: a connection-scoped request ID
// for demuxing the (possibly out-of-order) response stream, the sender's
// site ID, the caller's remaining time budget, whether the sender wants no
// response, and the optional distributed-tracing context. Carrying the
// budget (a duration, not an absolute time, so clocks need not be
// synchronized) lets the serving side stop an abandoned handler at roughly
// the moment the caller gives up instead of running out the full CallTimeout
// while holding locks. It is in microseconds and always present; zero or
// less means the caller has already given up. ask marks an ask frame.
type reqHeader struct {
	id       uint64
	from     proto.SiteID
	budgetUS int64
	oneWay   bool
	ask      bool
	// span is the span context both sides of this call share; sent only
	// when traced. A sender without a hub sends no trace block at all.
	traced bool
	span   obs.SpanContext
}

func appendReqHeader(b []byte, h reqHeader) []byte {
	at := len(b)
	b = append(b, 0) // header length, set below; the fields total < 80 bytes
	b = binary.AppendUvarint(b, h.id)
	b = binary.AppendVarint(b, int64(h.from))
	b = binary.AppendVarint(b, h.budgetUS)
	var flags byte
	if h.traced {
		flags |= flagTraced
	}
	if h.oneWay {
		flags |= flagOneWay
	}
	if h.ask {
		flags |= flagAsk
	}
	b = append(b, flags)
	if h.traced {
		b = binary.AppendUvarint(b, uint64(h.span.Root))
		b = binary.AppendUvarint(b, h.span.Span)
		b = binary.AppendUvarint(b, h.span.Parent)
		b = binary.AppendVarint(b, int64(h.span.Origin))
	}
	b[at] = byte(len(b) - at - 1)
	return b
}

// splitPayload separates a frame payload into header and body.
func splitPayload(p []byte) (header, body []byte, err error) {
	if len(p) == 0 || int(p[0]) > len(p)-1 {
		return nil, nil, errors.New("malformed frame: header longer than payload")
	}
	return p[1 : 1+int(p[0])], p[1+int(p[0]):], nil
}

func parseReqHeader(p []byte) (h reqHeader, body []byte, err error) {
	header, body, err := splitPayload(p)
	if err != nil {
		return h, nil, err
	}
	r := proto.NewWireReader(header)
	h.id = r.Uint()
	h.from = proto.SiteID(r.Int())
	h.budgetUS = r.Int()
	flags := r.Byte()
	h.oneWay = flags&flagOneWay != 0
	h.ask = flags&flagAsk != 0
	if flags&flagTraced != 0 {
		h.traced = true
		h.span = obs.SpanContext{
			Root:   proto.TxnID(r.Uint()),
			Span:   r.Uint(),
			Parent: r.Uint(),
			Origin: proto.SiteID(r.Int()),
		}
	}
	if r.Err() != nil {
		return h, nil, fmt.Errorf("malformed request header: %w", r.Err())
	}
	return h, body, nil
}

func appendRespHeader(b []byte, id uint64, isErr bool) []byte {
	at := len(b)
	b = binary.AppendUvarint(append(b, 0), id)
	if isErr {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b[at] = byte(len(b) - at - 1)
	return b
}

func parseRespHeader(p []byte) (id uint64, isErr bool, body []byte, err error) {
	header, body, err := splitPayload(p)
	if err != nil {
		return 0, false, nil, err
	}
	r := proto.NewWireReader(header)
	id, isErr = r.Uint(), r.Byte() != 0
	if r.Err() != nil {
		return 0, false, nil, fmt.Errorf("malformed response header: %w", r.Err())
	}
	return id, isErr, body, nil
}

// appendRequest appends one whole request frame to b.
func appendRequest(b []byte, h reqHeader, msg proto.Message) ([]byte, error) {
	b = appendReqHeader(append(b, 0, 0, 0, 0), h)
	b, err := proto.AppendMessage(b, msg)
	if err != nil {
		return b, err
	}
	return sealFrame(b)
}

// appendResponse appends one whole response frame to b: the reply, or the
// wire form of err — which is also what a reply that cannot be framed
// becomes.
func appendResponse(b []byte, id uint64, reply proto.Message, err error) []byte {
	if err == nil {
		var frame []byte
		frame, err = proto.AppendMessage(appendRespHeader(append(b, 0, 0, 0, 0), id, false), reply)
		if err == nil {
			if frame, err = sealFrame(frame); err == nil {
				return frame
			}
		}
	}
	b = appendRespHeader(append(b, 0, 0, 0, 0), id, true)
	b, _ = sealFrame(proto.EncodeError(err).Append(b)) // an error text never nears maxFrame
	return b
}

// sealFrame fills in the length prefix the frame was started with.
func sealFrame(b []byte) ([]byte, error) {
	n := len(b) - 4
	if n > maxFrame {
		return b, fmt.Errorf("frame too large: %d bytes", n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return b, nil
}

// frameBuf is a pooled buffer a frame is built in, so that a frame costs one
// Write and no allocation.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

// putFrame returns a buffer to the pool, unless one large frame grew it
// past what ordinary traffic needs.
func putFrame(fb *frameBuf) {
	if cap(fb.b) <= 64<<10 {
		framePool.Put(fb)
	}
}

// callResult is what a reading caller hands another waiting caller: the
// decoded reply message or the handler's (or the decoder's) error.
type callResult struct {
	msg proto.Message
	err error
}

// peerConn is one multiplexed outbound connection: many calls in flight at
// once, each registered under its request ID. No goroutine reads it. Its read
// side — r and the frame buffer buf — belongs to the waiting caller that holds
// the one-slot token: that caller reads response frames until its own
// arrives, hands every other one to the channel its caller registered, and
// puts the token back.
type peerConn struct {
	t    *Transport
	to   proto.SiteID
	conn net.Conn

	// wmu serializes request-frame writes, and guards the outbox: the posted
	// frames not yet written (out, and posts of them), and whether Close has
	// shut it. since is when the oldest queued post was queued (t.now), 0
	// while the outbox is empty; it is written under wmu and read by the
	// sweep without it. flushing says a flush goroutine is on its way
	// (flushSoon).
	wmu      sync.Mutex
	out      []byte
	posts    int
	shut     bool
	since    atomic.Int64
	flushing atomic.Bool

	// token holds its one value while nobody reads.
	token chan struct{}
	r     *bufio.Reader
	buf   []byte

	mu      sync.Mutex
	pending map[uint64]chan callResult
	dead    bool
	// reader is the request ID of the token holder that may wait in a read,
	// 0 if none, and readCtx and readBy its context and deadline, which the
	// transport's sweep checks. The sweep cuts a read only while reader
	// still names the holder it checked, so a holder that has moved on is
	// not cut for its predecessor. cut says the sweep left the read deadline
	// in the past; the next holder clears it.
	reader  uint64
	readCtx context.Context
	readBy  time.Time
	cut     bool
}

func newPeerConn(t *Transport, to proto.SiteID, conn net.Conn) *peerConn {
	p := &peerConn{
		t:       t,
		to:      to,
		conn:    conn,
		token:   make(chan struct{}, 1),
		r:       bufio.NewReader(conn),
		pending: make(map[uint64]chan callResult),
	}
	p.token <- struct{}{}
	return p
}

// post queues one posted frame in the outbox and makes sure the sweep is
// scheduled, which writes the outbox if no frame carries it. It fails on a
// connection that was retired or shut, so the poster retries on a fresh
// one: nothing was written. The caller holds wmu.
func (p *peerConn) post(frame []byte) error {
	p.mu.Lock()
	dead := p.dead
	p.mu.Unlock()
	if dead || p.shut {
		return errors.New("connection closed")
	}
	if p.posts == 0 {
		p.since.Store(p.t.now())
	}
	p.out = append(p.out, frame...)
	p.posts++
	p.t.wantSweep()
	return nil
}

// write writes frame, preceded by the outbox when posts are queued, by
// deadline, and reports how many posts left with it. A write that fails
// before a byte leaves keeps them queued; after that, they went with the
// stream or are lost with the connection. The caller holds wmu.
func (p *peerConn) write(frame []byte, deadline time.Time) (n, carried int, err error) {
	if p.posts == 0 {
		n, err = p.send(frame, deadline)
		return n, 0, err
	}
	queued := len(p.out)
	p.out = append(p.out, frame...)
	n, err = p.send(p.out, deadline)
	if n == 0 && err != nil {
		p.out = p.out[:queued]
		return n, 0, err
	}
	carried = p.posts
	p.out, p.posts = p.out[:0], 0
	p.since.Store(0)
	return n, carried, err
}

// send writes b whole, unless deadline passes first. It offers b to the
// socket without waiting (rawio.TryWrite), and only a rest the send buffer
// cannot take at once is written under a write deadline, cleared again
// after: a write that does not wait sets no poller deadline. A deadline
// already past fails before a byte leaves. The caller holds wmu.
func (p *peerConn) send(b []byte, deadline time.Time) (int, error) {
	if !time.Now().Before(deadline) {
		return 0, os.ErrDeadlineExceeded
	}
	n := rawio.TryWrite(p.conn, b)
	if n == len(b) {
		return n, nil
	}
	p.conn.SetWriteDeadline(deadline)
	m, err := p.conn.Write(b[n:])
	p.conn.SetWriteDeadline(time.Time{})
	return n + m, err
}

// flushSoon has the outbox written on a goroutine of its own, counted in
// t.wg, unless one is already on its way: so neither the sweep nor a serving
// goroutine that was asked ever waits on a peer's full socket. The caller
// holds a count in t.wg itself, so Close waits for the goroutine.
func (p *peerConn) flushSoon(exit obs.PostExit) {
	if p.flushing.Swap(true) {
		return // its write, after this, takes whatever is queued by then
	}
	p.t.wg.Add(1)
	go func() {
		defer p.t.wg.Done()
		p.flushPosts(exit, false)
	}()
}

// flushPosts writes whatever the outbox holds, and with shut (Close) also
// shuts it. A write that fails drops the connection, and the posts in it
// are lost, as a frame lost with its connection always was.
func (p *peerConn) flushPosts(exit obs.PostExit, shut bool) {
	p.wmu.Lock()
	p.flushing.Store(false) // a flushSoon from now on goes after this write
	p.shut = p.shut || shut
	n := p.posts
	var err error
	if n > 0 {
		_, err = p.send(p.out, time.Now().Add(p.t.cfg.CallTimeout))
		p.out, p.posts = p.out[:0], 0
		p.since.Store(0)
	}
	p.wmu.Unlock()
	switch {
	case n == 0:
	case err != nil:
		p.t.dropPeer(p.to, p)
	default:
		p.t.cfg.Obs.PostsSent(p.t.cfg.Self, n, exit)
	}
}

// register enrolls a request ID for its reply, to be handed to ch. It fails
// if the connection already died, so the caller retries on a fresh one
// (nothing was written).
func (p *peerConn) register(id uint64, ch chan callResult) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return errors.New("connection closed")
	}
	p.pending[id] = ch
	return nil
}

// unregister abandons a pending request (timeout, cancellation, or write
// failure). A response arriving afterwards is dropped by whoever reads it.
// It reports whether the request was still registered: if not, a reader
// claimed it and may still hand its reply to the channel.
func (p *peerConn) unregister(id uint64) bool {
	p.mu.Lock()
	_, ok := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	return ok
}

// claim removes and returns the channel registered under id, nil if its
// caller gave up.
func (p *peerConn) claim(id uint64) chan callResult {
	p.mu.Lock()
	ch := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	return ch
}

// fail marks the connection dead and wakes every pending caller by closing
// its channel: their frames were written, so the failure is conclusive.
func (p *peerConn) fail() {
	p.conn.Close()
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	pending := p.pending
	p.pending = make(map[uint64]chan callResult)
	p.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Transport is a running TCP transport. Create with New, then Start.
type Transport struct {
	cfg Config

	// baseCtx parents every inbound handler invocation; Close cancels it so
	// in-flight handlers stop holding locks when the transport shuts down.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	nextID atomic.Uint64

	// handler is read on every inbound frame and every self-call, so it
	// stays off mu, which dialing and Close hold.
	handler atomic.Pointer[transport.Handler]

	mu      sync.Mutex
	ln      net.Listener
	peers   map[proto.SiteID]*peerConn
	dialing map[proto.SiteID]chan struct{}
	serving map[net.Conn]bool
	closed  bool
	// asking holds the peers an ask goroutine is on its way to (AskPeers).
	asking map[proto.SiteID]bool

	// sweep runs sweepReads, sweepTick after a token holder or a post found
	// none scheduled (sweeping false). It is scheduled under mu, and not
	// once closed; every scheduled run is counted in wg.
	sweep    *time.Timer
	sweeping atomic.Bool

	// askFrame is this site's ask, the same bytes every time.
	askFrame []byte
	// epoch is when the transport was made; now counts from it.
	epoch time.Time

	wg sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// New builds a transport; Start begins serving.
func New(cfg Config) *Transport {
	cfg = cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:        cfg,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		peers:      make(map[proto.SiteID]*peerConn),
		dialing:    make(map[proto.SiteID]chan struct{}),
		serving:    make(map[net.Conn]bool),
		asking:     make(map[proto.SiteID]bool),
		epoch:      time.Now(),
	}
	t.askFrame, _ = sealFrame(appendReqHeader(make([]byte, 4), reqHeader{from: cfg.Self, oneWay: true, ask: true}))
	t.sweep = time.AfterFunc(time.Hour, t.sweepReads)
	t.sweep.Stop()
	t.SetHandler(cfg.Handler)
	return t
}

// now is the monotonic time since the transport was made, in nanoseconds,
// and never 0, which marks an empty outbox.
func (t *Transport) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// wantSweep makes sure a sweep is scheduled, for a token holder that has
// just recorded itself on its connection or a post just queued.
func (t *Transport) wantSweep() {
	if t.sweeping.Load() {
		return
	}
	t.mu.Lock()
	if !t.sweeping.Load() && !t.closed {
		t.sweeping.Store(true)
		t.wg.Add(1)
		t.sweep.Reset(sweepTick)
	}
	t.mu.Unlock()
}

// sweepReads ends the reads of every token holder whose deadline has passed
// or whose context is done, by moving its connection's read deadline into
// the past, has every outbox whose oldest post has waited postBound written
// (flushSoon), and schedules itself again while another holder still reads
// or an outbox still holds posts. It clears sweeping before it looks, and a
// holder or a post records itself before it asks whether a sweep is
// scheduled, so one this run misses finds no run scheduled and schedules
// one.
func (t *Transport) sweepReads() {
	defer t.wg.Done()
	t.sweeping.Store(false)
	t.mu.Lock()
	peers := make([]*peerConn, 0, len(t.peers))
	for _, pc := range t.peers {
		peers = append(peers, pc)
	}
	t.mu.Unlock()
	now, mono := time.Now(), t.now()
	busy := false
	for _, pc := range peers {
		if since := pc.since.Load(); since != 0 {
			busy = true
			if mono-since >= int64(postBound) {
				pc.flushSoon(obs.PostSwept)
			}
		}
		pc.mu.Lock()
		id, ctx, by, cut := pc.reader, pc.readCtx, pc.readBy, pc.cut
		pc.mu.Unlock()
		if id == 0 || cut {
			continue
		}
		// Asked outside every lock: the context is the caller's code.
		if now.Before(by) && ctx.Err() == nil {
			busy = true
			continue
		}
		pc.mu.Lock()
		if pc.reader == id && !pc.cut {
			pc.cut = true
			pc.conn.SetReadDeadline(time.Unix(1, 0))
		}
		pc.mu.Unlock()
	}
	if busy {
		t.wantSweep()
	}
}

// SetHandler installs the inbound-request handler.
func (t *Transport) SetHandler(h transport.Handler) {
	if h == nil {
		t.handler.Store(nil)
		return
	}
	t.handler.Store(&h)
}

// loadHandler returns the installed handler, or ErrSiteDown when there is
// none yet.
func (t *Transport) loadHandler() (transport.Handler, error) {
	if h := t.handler.Load(); h != nil {
		return *h, nil
	}
	return nil, fmt.Errorf("site %v has no handler installed: %w", t.cfg.Self, proto.ErrSiteDown)
}

// Addr returns the listen address once Start has succeeded.
func (t *Transport) Addr() net.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// Start listens on this site's address and serves inbound requests until
// Close.
func (t *Transport) Start() error {
	ln := t.cfg.Listener
	if ln == nil {
		addr, ok := t.cfg.Addrs[t.cfg.Self]
		if !ok {
			return fmt.Errorf("tcpnet: no address for self (site %v)", t.cfg.Self)
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("tcpnet: listen %s: %w", addr, err)
		}
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return fmt.Errorf("tcpnet: transport closed")
	}
	t.ln = ln
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return nil
}

// Close stops serving and closes every connection.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	if t.sweep.Stop() {
		t.wg.Done()
	}
	ln := t.ln
	conns := make([]net.Conn, 0, len(t.serving))
	for c := range t.serving {
		conns = append(conns, c)
	}
	peers := make([]*peerConn, 0, len(t.peers))
	for _, pc := range t.peers {
		peers = append(peers, pc)
	}
	t.peers = make(map[proto.SiteID]*peerConn)
	t.mu.Unlock()

	t.baseCancel()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, pc := range peers {
		pc.flushPosts(obs.PostSwept, true)
		pc.fail()
	}
	t.wg.Wait()
	return nil
}

func (t *Transport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		conn = rawio.Wrap(conn)
		t.serving[conn] = true
		t.mu.Unlock()
		s := &servedConn{t: t, conn: conn, r: bufio.NewReader(conn)}
		s.handOff()
	}
}

// servedConn is the serving side of one inbound connection. Its read side —
// r and the frame buffer buf — belongs to one goroutine at a time, the one in
// readLoop; every goroutine the connection starts is counted in t.wg.
type servedConn struct {
	t    *Transport
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
	// wmu serializes response-frame writes.
	wmu sync.Mutex
}

// readLoop reads request frames in order and serves each one itself. It
// gives the read side away — to a new readLoop goroutine — when the frame it
// just decoded has more request bytes buffered behind it (before serving, so
// a pipelined burst is served concurrently) or when the handler asks its
// context for Done and is about to wait (handlerCtx.Done). Either way this
// goroutine finishes its one handler, writes the response and exits;
// responses may cross the wire out of order. The goroutine that finds the
// stream ended, or corrupt, retires the connection.
func (s *servedConn) readLoop() {
	defer s.t.wg.Done()
	for {
		var err error
		if s.buf, err = readFrame(s.r, s.buf); err != nil {
			break // peer closed, or the stream is corrupt
		}
		h, body, err := parseReqHeader(s.buf)
		if err != nil {
			break // no request ID to answer under: the stream is corrupt
		}
		if h.ask {
			s.t.answerAsk(h.from)
			continue
		}
		// The decoded message shares nothing with buf, which the next reader
		// overwrites.
		msg, err := proto.DecodeMessage(body)
		reading := h.oneWay || s.r.Buffered() == 0
		if !reading {
			s.handOff()
		}
		if !s.serve(h, msg, err, reading) {
			return
		}
	}
	s.conn.Close()
	s.t.mu.Lock()
	delete(s.t.serving, s.conn)
	s.t.mu.Unlock()
}

// handOff starts the goroutine that takes over the read side. The caller
// owns the read side and must not touch it afterwards.
func (s *servedConn) handOff() {
	s.t.wg.Add(1)
	go s.readLoop()
}

// serve answers one request: it runs the handler (unless the message did
// not decode) and, unless the request was posted, writes the response frame,
// built in a pooled buffer, with one Write. reading says the calling
// goroutine owns the connection's read side, and the result whether it still
// does: the handler's context may have given it away.
func (s *servedConn) serve(h reqHeader, msg proto.Message, err error, reading bool) bool {
	var reply proto.Message
	if err == nil {
		reply, reading, err = s.dispatch(h, msg, reading)
	}
	if h.oneWay {
		return reading
	}
	fb := framePool.Get().(*frameBuf)
	fb.b = appendResponse(fb.b[:0], h.id, reply, err)
	s.wmu.Lock()
	_, err = s.conn.Write(fb.b)
	s.wmu.Unlock()
	putFrame(fb)
	if err != nil {
		// The response stream is poisoned; drop the connection so the read
		// loop exits and the peer re-establishes.
		s.conn.Close()
	}
	return reading
}

// handlerCtx is the context an inbound handler runs under: a
// transport.Budget, done when the caller's carried time budget runs out or
// the transport closes, whose timer and registration with the transport's
// base context exist only once something asks for Done — most handlers never
// wait, and building a context.WithDeadline for each request was a tenth of
// a participant's CPU.
//
// Done is also where a handler about to wait lets go of the connection: while
// its goroutine still owns the read side (reader non-nil), the first Done
// hands that to a new goroutine before returning the channel. At most once,
// under mu, and only until release: a Done after the handler returned — from
// a goroutine it leaked, or a derived context — must not start a second
// reader on the connection's bufio.Reader.
type handlerCtx struct {
	transport.Budget
	// span is the caller's span context, what SpanFrom finds in this
	// context, when the request carried one (traced).
	span   obs.SpanContext
	traced bool

	mu     sync.Mutex
	reader *servedConn
}

func (c *handlerCtx) Done() <-chan struct{} {
	c.mu.Lock()
	if c.reader != nil {
		c.reader.handOff()
		c.reader = nil
	}
	c.mu.Unlock()
	return c.Budget.Done()
}

// Span implements obs.SpanCarrier: the caller's span context, when the
// request carried one.
func (c *handlerCtx) Span() (obs.SpanContext, bool) { return c.span, c.traced }

// Value answers for the request's span context itself, and otherwise defers
// to the budget.
func (c *handlerCtx) Value(key any) any {
	if c.traced && obs.IsSpanKey(key) {
		return c.span
	}
	return c.Budget.Value(key)
}

// release ends the context when its handler returns, and reports whether
// the handler's goroutine still owns the read side it came in with.
func (c *handlerCtx) release() (reading bool) {
	c.mu.Lock()
	reading, c.reader = c.reader != nil, nil // a later Done hands nothing off
	c.mu.Unlock()
	c.Budget.Release()
	return reading
}

// dispatch runs the handler for one decoded request. reading and the
// second result are serve's.
func (s *servedConn) dispatch(req reqHeader, msg proto.Message, reading bool) (proto.Message, bool, error) {
	t := s.t
	h, err := t.loadHandler()
	if err != nil {
		return nil, reading, err
	}
	// Bound the handler by the caller's carried time budget (never more than
	// CallTimeout), under baseCtx so Close also cancels it: a request whose
	// caller has given up stops waiting on locks instead of running out the
	// full CallTimeout. A spent budget gives a context that is already done.
	timeout := t.cfg.CallTimeout
	if req.budgetUS < timeout.Microseconds() {
		timeout = time.Duration(req.budgetUS) * time.Microsecond
	}
	// The caller's span context reaches the handler even without a local
	// hub: nested RPCs the handler makes must still carry their causal
	// parent. With a hub, the server side of the span is recorded too.
	hctx := &handlerCtx{span: req.span, traced: req.traced}
	hctx.Start(t.baseCtx, time.Now().Add(timeout))
	if reading {
		hctx.reader = s
	}
	traced := req.traced && t.cfg.Obs != nil
	var (
		kind  proto.Kind
		start time.Time
	)
	if traced {
		kind = proto.KindOf(msg)
		start = t.cfg.Obs.SpanStart(t.cfg.Self, req.from, req.span, obs.SideServer, kind, t.cfg.Lamport)
	}
	reply, err := h(hctx, req.from, msg)
	if traced {
		t.cfg.Obs.SpanFinish(t.cfg.Self, req.from, req.span, obs.SideServer, kind, t.cfg.Lamport, start, err)
	}
	return reply, hctx.release(), err
}

// checkOrigin rejects a request that claims to come from another site.
func (t *Transport) checkOrigin(from proto.SiteID) error {
	if from != t.cfg.Self {
		return fmt.Errorf("tcpnet: call from %v on site %v's transport", from, t.cfg.Self)
	}
	return nil
}

// Send implements transport.Transport: it writes one request frame onto the
// shared per-peer connection and returns; Wait collects the reply. A request
// to Self is served by the local handler when it is waited for, on the
// waiting goroutine.
func (t *Transport) Send(ctx context.Context, from, to proto.SiteID, msg proto.Message) transport.Pending {
	if err := t.checkOrigin(from); err != nil {
		return transport.Done(nil, err)
	}
	if to == t.cfg.Self {
		h, err := t.loadHandler()
		if err != nil {
			return transport.Done(nil, err)
		}
		return t.Local(&selfCall{h: h, ctx: ctx, from: from, msg: msg})
	}
	c := callPool.Get().(*call)
	c.t, c.ctx, c.to = t, ctx, to
	if err := c.send(msg, false); err != nil {
		c.recycle()
		return transport.Done(nil, err)
	}
	return transport.InFlight(c)
}

// Local implements transport.Transport: w runs when the request is waited
// for, on the waiting goroutine, so in a fan-out the site's own work overlaps
// the peers'. Like every request to Self it is untraced.
func (t *Transport) Local(w transport.Waiter) transport.Pending { return transport.Inline(w) }

// Post implements transport.Transport: one request frame with the one-way
// bit set, nothing registered for a reply, queued in the connection's
// outbox. A nil error means the frame is queued on a live connection: the
// next frame to the peer writes it, or an ask from the peer, or the sweep
// within postBound + sweepTick. A refused dial fails Post as a failed write
// used to.
func (t *Transport) Post(ctx context.Context, from, to proto.SiteID, msg proto.Message) error {
	if err := t.checkOrigin(from); err != nil {
		return err
	}
	if to == t.cfg.Self {
		_, err := t.Call(ctx, from, to, msg)
		return err
	}
	c := call{t: t, ctx: ctx, to: to}
	return c.send(msg, true)
}

// AskPeers asks every other site in Addrs to write its outbox to this one
// at once: a site about to wait on a lock calls it (lockmgr.Config.Waiting),
// so that a decision queued at a coordinator does not wait for the sweep.
// It never blocks: each ask, and the dial to a peer with no connection yet,
// runs on a goroutine counted in the wait group, one per peer at a time.
func (t *Transport) AskPeers() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	for to := range t.cfg.Addrs {
		if to == t.cfg.Self || t.asking[to] {
			continue // an ask on its way writes after this call
		}
		t.asking[to] = true
		t.wg.Add(1)
		go t.ask(to)
	}
}

// ask writes one ask frame to site to, the outbox ahead of it, dialing a
// connection if there is none. It dials once: a peer that refuses has
// nothing queued for this site, and every caller that needs the peer
// meanwhile waits on the dial, so retrying a dead site's refusals would
// hold them all up. Like a call's write it first peeks at a connection
// nobody reads, so an ask is not written into one its peer has closed.
func (t *Transport) ask(to proto.SiteID) {
	defer t.wg.Done()
	for {
		pc, fresh, err := t.getPeer(t.baseCtx, to, 0)
		if err != nil {
			t.mu.Lock()
			delete(t.asking, to)
			t.mu.Unlock()
			return
		}
		if !fresh && len(pc.token) == 1 && rawio.PeerClosed(pc.conn) {
			t.dropPeer(to, pc)
			continue
		}
		pc.wmu.Lock()
		t.mu.Lock()
		delete(t.asking, to) // an AskPeers from now on asks again
		t.mu.Unlock()
		_, carried, err := pc.write(t.askFrame, time.Now().Add(t.cfg.CallTimeout))
		pc.wmu.Unlock()
		if err != nil {
			t.dropPeer(to, pc)
			return
		}
		t.cfg.Obs.AskSent(t.cfg.Self)
		if carried > 0 {
			t.cfg.Obs.PostsSent(t.cfg.Self, carried, obs.PostCarried)
		}
		return
	}
}

// answerAsk serves an ask from site from: whatever this site has queued for
// it is written at once, on a goroutine of its own (flushSoon).
func (t *Transport) answerAsk(from proto.SiteID) {
	t.mu.Lock()
	pc := t.peers[from]
	t.mu.Unlock()
	if pc != nil && pc.since.Load() != 0 {
		pc.flushSoon(obs.PostAsked)
	}
}

// Call implements transport.Transport: Send, then Wait. Calls to Self are
// served by the local handler directly, matching the simulator's local bus.
func (t *Transport) Call(ctx context.Context, from, to proto.SiteID, msg proto.Message) (proto.Message, error) {
	if err := t.checkOrigin(from); err != nil {
		return nil, err
	}
	if to == t.cfg.Self {
		h, err := t.loadHandler()
		if err != nil {
			return nil, err
		}
		return h(ctx, from, msg)
	}
	return t.Send(ctx, from, to, msg).Wait()
}

// selfCall is a request to the sending site: the handler runs in Wait.
// Requests to Self are untraced, matching the simulator's local bus.
type selfCall struct {
	h    transport.Handler
	ctx  context.Context
	from proto.SiteID
	msg  proto.Message
}

func (c *selfCall) Wait() (proto.Message, error) { return c.h(c.ctx, c.from, c.msg) }

// call is the client side of one request to a remote site. A call sent for
// a reply comes from callPool and goes back once its Wait returns, with its
// reply channel when nobody else can still send on that (recycle).
type call struct {
	t   *Transport
	ctx context.Context
	to  proto.SiteID

	// ch receives the reply when another caller reads it: registered under
	// id, on pc, by a send that wants a reply.
	ch       chan callResult
	pc       *peerConn
	id       uint64
	deadline time.Time

	// With a hub installed, the request is one client-side span: its context
	// is read from ctx (parent and root), a fresh span ID is allocated in
	// send, and the same context rides the request frame so the serving side
	// records the matching server span.
	traced bool
	side   string // obs.SideClient, or obs.SidePost for a posted request
	kind   proto.Kind
	sc     obs.SpanContext
	start  time.Time // the client span's start stamp
}

// send opens the client span and writes (or, posted, queues) the request
// frame. The span of a request that will not be waited for — it was posted,
// or it failed here — is finished at once.
func (c *call) send(msg proto.Message, oneWay bool) error {
	t := c.t
	if hub := t.cfg.Obs; hub != nil {
		parent, _ := obs.SpanFrom(c.ctx)
		c.sc = obs.SpanContext{
			Root:   parent.Root,
			Span:   obs.NewSpanID(t.cfg.Self),
			Parent: parent.Span,
			Origin: t.cfg.Self,
		}
		c.traced, c.side, c.kind = true, obs.SideClient, proto.KindOf(msg)
		if oneWay {
			c.side = obs.SidePost
		}
		hub.MsgSent(t.cfg.Self, c.to, c.kind)
		c.start = hub.SpanStart(t.cfg.Self, c.to, c.sc, c.side, c.kind, t.cfg.Lamport)
	}
	err := c.write(msg, oneWay)
	if err != nil || oneWay {
		c.finish(err)
	}
	return err
}

// finish closes the client span.
func (c *call) finish(err error) {
	if c.traced {
		c.t.cfg.Obs.SpanFinish(c.t.cfg.Self, c.to, c.sc, c.side, c.kind, c.t.cfg.Lamport, c.start, err)
	}
}

// write frames msg and writes it to the peer's connection, registering for
// the reply first; a one-way request is queued in the outbox instead.
func (c *call) write(msg proto.Message, oneWay bool) error {
	t, ctx, to := c.t, c.ctx, c.to
	c.deadline = time.Now().Add(t.cfg.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(c.deadline) {
		c.deadline = d
	}
	fb := framePool.Get().(*frameBuf)
	defer putFrame(fb)

	// The shared connection may have been closed by the peer since its last
	// use; a registration or write failure means the request frame never
	// arrived intact (a partial frame fails the peer's length-prefixed read
	// and is never dispatched), so a fresh connection is dialed and the
	// request retried. Once the frame was fully written — or the connection
	// was freshly dialed by this request — a failure is conclusive: the peer
	// may already have received and executed the request, and resending it
	// would execute a non-idempotent message twice. Under fail-stop the
	// conclusive case is a site crash.
	for {
		pc, fresh, err := t.getPeer(ctx, to, t.cfg.DialRetries)
		if err != nil {
			return err
		}
		// A connection nobody is reading has nobody to see its peer close
		// it, so one peek asks before anything is written into it.
		if !fresh && len(pc.token) == 1 && rawio.PeerClosed(pc.conn) {
			t.dropPeer(to, pc)
			continue
		}
		id := t.nextID.Add(1)
		fb.b, err = appendRequest(fb.b[:0], reqHeader{
			id: id, from: t.cfg.Self,
			budgetUS: time.Until(c.deadline).Microseconds(),
			oneWay:   oneWay,
			traced:   c.traced, span: c.sc,
		}, msg)
		if err != nil {
			return err
		}
		if oneWay {
			pc.wmu.Lock()
			err = pc.post(fb.b)
			pc.wmu.Unlock()
		} else {
			if c.ch == nil {
				c.ch = make(chan callResult, 1)
			}
			err = pc.register(id, c.ch)
		}
		if err != nil {
			// Nothing written; a dead shared conn is replaced and retried.
			t.dropPeer(to, pc)
			if fresh {
				return fmt.Errorf("site %v: connection lost (%v): %w", to, err, proto.ErrSiteDown)
			}
			continue
		}
		if oneWay {
			return nil
		}
		c.pc, c.id = pc, id
		pc.wmu.Lock()
		n, carried, err := pc.write(fb.b, c.deadline)
		pc.wmu.Unlock()
		if err == nil {
			if carried > 0 {
				t.cfg.Obs.PostsSent(t.cfg.Self, carried, obs.PostCarried)
			}
			return nil
		}
		if !pc.unregister(id) {
			// The connection failed under the write and closed the
			// channel: neither a retry nor callPool may have it.
			c.ch = nil
		}
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			// The caller's own deadline passed before a byte left: the stream
			// is intact, and the calls in flight on it are not this one's to
			// fail. A context that ran out says nothing about the peer, so
			// its error is not ErrSiteDown.
			if d, ok := ctx.Deadline(); ok && d.Equal(c.deadline) {
				return fmt.Errorf("site %v: %w", to, context.DeadlineExceeded)
			}
			return fmt.Errorf("site %v: call timed out: %w", to, proto.ErrSiteDown)
		}
		t.dropPeer(to, pc)
		if fresh {
			return fmt.Errorf("site %v: write failed (%v): %w", to, err, proto.ErrSiteDown)
		}
	}
}

// Wait blocks until the reply arrives, the connection dies, or the deadline
// passes, and closes the client span. The frame was already written, so
// every failure here is conclusive (at-most-once: never resent). The call
// goes back to callPool.
func (c *call) Wait() (proto.Message, error) {
	reply, err := c.await()
	c.finish(err)
	c.recycle()
	return reply, err
}

var callPool = sync.Pool{New: func() any { return new(call) }}

// recycle returns the call to callPool, keeping its reply channel, which is
// empty and unregistered whenever ch is still set: every path that cannot
// tell whether a reader may yet send on it (a claimed request abandoned, a
// channel closed with its connection) drops it.
func (c *call) recycle() {
	*c = call{ch: c.ch}
	callPool.Put(c)
}

// abandon unregisters the call after it stopped waiting, dropping its
// channel if a reader already claimed the request.
func (c *call) abandon() {
	if !c.pc.unregister(c.id) {
		c.ch = nil
	}
}

// await takes the connection's read token whenever it is free and reads for
// itself; while another caller holds it, that caller hands this one its
// reply.
func (c *call) await() (proto.Message, error) {
	// In a fan-out the reply is often in by the time it is waited for, and
	// a caller that finds nobody reading reads at once: neither needs a
	// timer.
	select {
	case resp, ok := <-c.ch:
		return c.received(resp, ok)
	case <-c.pc.token:
		return c.read()
	default:
	}
	timer := time.NewTimer(time.Until(c.deadline))
	defer timer.Stop()
	select {
	case resp, ok := <-c.ch:
		return c.received(resp, ok)
	case <-c.pc.token:
		return c.read()
	case <-timer.C:
		c.abandon()
		return nil, c.gaveUp()
	case <-c.ctx.Done():
		c.abandon()
		return nil, c.gaveUp()
	}
}

func (c *call) received(resp callResult, ok bool) (proto.Message, error) {
	if !ok {
		c.ch = nil // closed with its connection
		return nil, c.lost()
	}
	return resp.msg, resp.err
}

// lost is the error of a call whose connection died after its frame was
// written.
func (c *call) lost() error {
	return fmt.Errorf("site %v: connection lost awaiting reply: %w", c.to, proto.ErrSiteDown)
}

// gaveUp is the error of a call that stopped waiting on its own account: its
// context's error if that is done, otherwise its deadline's.
func (c *call) gaveUp() error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("site %v: %v: %w", c.to, err, proto.ErrSiteDown)
	}
	return fmt.Errorf("site %v: call timed out: %w", c.to, proto.ErrSiteDown)
}

// read is await for the caller holding the read token. It reads response
// frames until its own, handing each other one to its registered caller
// (or dropping it, when that caller gave up), and then puts the token back.
// Its reads end when the transport's sweep finds its deadline passed or its
// context done, through the connection's read deadline: at most sweepTick
// after the cause. If that ends a read between frames, the
// stream is intact: the call gives up and the token passes on. If it ends a
// read inside a frame, or the stream ends or is corrupt, the connection is
// retired and every call waiting on it fails conclusively.
func (c *call) read() (proto.Message, error) {
	pc := c.pc
	select {
	case resp, ok := <-c.ch: // handed over before the token was
		pc.token <- struct{}{}
		return c.received(resp, ok)
	default:
	}
	armed := false
	for {
		// A whole frame already buffered is read without a syscall, so the
		// deadline and the context are recorded only before the first read
		// that may wait.
		if !armed && !frameBuffered(pc.r) {
			armed = true
			c.arm()
		}
		_, err := pc.r.Peek(1)
		between := err != nil
		if err == nil {
			pc.buf, err = readFrame(pc.r, pc.buf)
		}
		var (
			id    uint64
			isErr bool
			body  []byte
		)
		if err == nil {
			id, isErr, body, err = parseRespHeader(pc.buf)
		}
		if err != nil {
			c.disarm(armed)
			timedOut := errors.Is(err, os.ErrDeadlineExceeded)
			if between && timedOut {
				c.abandon()
				pc.token <- struct{}{}
				return nil, c.gaveUp()
			}
			c.ch = nil // dropPeer closes it, if it is still registered
			c.t.dropPeer(c.to, pc)
			if timedOut {
				return nil, c.gaveUp()
			}
			return nil, c.lost()
		}
		ch := pc.claim(id)
		if ch == c.ch {
			c.disarm(armed)
			resp := decodeReply(isErr, body) // before the token: body is in buf
			pc.token <- struct{}{}
			return resp.msg, resp.err
		}
		if ch != nil {
			ch <- decodeReply(isErr, body) // buffered: never blocks
		}
	}
}

// arm records the token holder's deadline and context on its connection,
// where the transport's sweep looks for them, and makes sure a sweep is
// scheduled. It sets no deadline and asks the context for no Done channel:
// a read deadline the sweep left in the past for an earlier holder is the
// only one it clears.
func (c *call) arm() {
	pc := c.pc
	pc.mu.Lock()
	if pc.cut {
		pc.cut = false
		pc.conn.SetReadDeadline(time.Time{})
	}
	pc.reader, pc.readCtx, pc.readBy = c.id, c.ctx, c.deadline
	pc.mu.Unlock()
	c.t.wantSweep()
}

// disarm undoes arm, if the read was armed, before the token is put back.
func (c *call) disarm(armed bool) {
	if !armed {
		return
	}
	pc := c.pc
	pc.mu.Lock()
	pc.reader, pc.readCtx = 0, nil
	pc.mu.Unlock()
}

// frameBuffered reports whether r holds a whole frame, so that reading it
// makes no syscall.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	h, _ := r.Peek(4)
	return uint64(r.Buffered()-4) >= uint64(binary.BigEndian.Uint32(h))
}

// decodeReply decodes a response body: the reply message, or the error the
// handler returned.
func decodeReply(isErr bool, body []byte) callResult {
	if !isErr {
		msg, err := proto.DecodeMessage(body)
		return callResult{msg, err}
	}
	w, err := proto.DecodeError(body)
	if err != nil {
		return callResult{err: err}
	}
	return callResult{err: w.Err()}
}

// getPeer returns the shared multiplexed connection to site to, dialing one
// if none is live. Concurrent callers coalesce onto a single dial; fresh
// reports whether THIS call dialed the connection (its failures are then
// conclusive rather than retriable). A refused dial is retried up to retries
// times (a peer process may still be starting); a dial that keeps failing
// means the site is down.
func (t *Transport) getPeer(ctx context.Context, to proto.SiteID, retries int) (pc *peerConn, fresh bool, err error) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return nil, false, fmt.Errorf("tcpnet: transport closed")
		}
		if pc := t.peers[to]; pc != nil {
			t.mu.Unlock()
			return pc, false, nil
		}
		if wait := t.dialing[to]; wait != nil {
			t.mu.Unlock()
			select {
			case <-wait:
				continue // re-check: the dial finished (either way)
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		done := make(chan struct{})
		t.dialing[to] = done
		addr, ok := t.cfg.Addrs[to]
		t.mu.Unlock()

		conn, err := func() (net.Conn, error) {
			if !ok {
				return nil, fmt.Errorf("tcpnet: no address for site %v", to)
			}
			return t.dial(ctx, to, addr, retries)
		}()

		t.mu.Lock()
		delete(t.dialing, to)
		close(done)
		if err != nil {
			t.mu.Unlock()
			return nil, false, err
		}
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return nil, false, fmt.Errorf("tcpnet: transport closed")
		}
		pc := newPeerConn(t, to, rawio.Wrap(conn))
		t.peers[to] = pc
		t.mu.Unlock()
		return pc, true, nil
	}
}

// dial establishes one connection with the configured refused-dial retries.
func (t *Transport) dial(ctx context.Context, to proto.SiteID, addr string, retries int) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(t.cfg.DialRetryWait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		d := net.Dialer{Timeout: t.cfg.DialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("site %v unreachable at %s (%v): %w", to, addr, lastErr, proto.ErrSiteDown)
}

// dropPeer retires a dead connection: it is removed from the peer table (if
// still current) so the next call dials afresh, and every pending caller is
// failed.
func (t *Transport) dropPeer(to proto.SiteID, pc *peerConn) {
	t.mu.Lock()
	if t.peers[to] == pc {
		delete(t.peers, to)
	}
	t.mu.Unlock()
	pc.fail()
}

// readFrame reads one frame's payload into buf, growing it when the frame
// is larger, and returns the payload. The caller passes the result back in
// on the next read, so a connection reads all its frames into one buffer.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 512)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > maxFrame {
		return buf, errors.New("frame too large")
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}
