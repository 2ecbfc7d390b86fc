package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The wire codec: a hand-written binary form that lets a real network
// transport (internal/transport/tcpnet) carry any protocol message as bytes
// and reconstruct the concrete Go value — and the protocol error taxonomy —
// on the other side. The in-process simulator never serializes; both
// transports carry exactly the vocabulary defined in this package.
//
// A message is one kind byte followed by its fields in declaration order:
// unsigned integers (TxnID, Session, sequence numbers) as uvarints, signed
// ones (SiteID, Value, the small enums) as zigzag varints, bools as one
// byte, strings as a uvarint length plus the bytes, slices and maps as a
// uvarint element count plus the elements (map entries in ascending key
// order, so equal values give equal bytes). Nested structs (TxnMeta,
// Version, BatchOp, SpooledUpdate) are their fields inline.
//
// Compatibility rule: a message is delimited by whatever carries it (the
// slice handed to DecodeMessage, the frame in tcpnet), and a decoder reads
// the fields it knows and ignores the bytes after them. New fields are
// therefore appended at the END of a message, never inserted, and existing
// fields never change type or order: an old decoder drops the addition, and
// the decoder of an appended field takes "no bytes left" as its zero value
// so an old encoder's shorter message still decodes. Nested structs have no
// delimiter of their own and are frozen; kind bytes and error codes are
// never reused.

// Kind bytes. Append only.
const (
	kindRead byte = iota + 1
	kindReadResp
	kindWrite
	kindWriteResp
	kindBatch
	kindBatchResp
	kindPrepare
	kindPrepareResp
	kindCommit
	kindCommitResp
	kindAbort
	kindAbortResp
	kindDecision
	kindDecisionResp
	kindProbe
	kindProbeResp
	kindMissedFetch
	kindMissedFetchResp
	_ // 19 and 20 were spool.append and its reply, which nothing sent
	_
	kindSpoolFetch
	kindSpoolFetchResp

	kindMax = kindSpoolFetchResp
)

// Kind is a message's kind byte, the first byte of its wire form: a small
// number a hot path can index a table by where Message.Kind would have it
// hash a string.
type Kind byte

// kindNames name the kinds: what Kind.String and each message's Kind
// method return.
var kindNames = [kindMax + 1]string{
	kindRead: "read", kindReadResp: "read.resp",
	kindWrite: "write", kindWriteResp: "write.resp",
	kindBatch: "batch", kindBatchResp: "batch.resp",
	kindPrepare: "prepare", kindPrepareResp: "prepare.resp",
	kindCommit: "commit", kindCommitResp: "commit.resp",
	kindAbort: "abort", kindAbortResp: "abort.resp",
	kindDecision: "decision", kindDecisionResp: "decision.resp",
	kindProbe: "probe", kindProbeResp: "probe.resp",
	kindMissedFetch: "missed.fetch", kindMissedFetchResp: "missed.fetch.resp",
	kindSpoolFetch: "spool.fetch", kindSpoolFetchResp: "spool.fetch.resp",
}

// String returns the name Kind returns on the kind's messages.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// KindOf returns m's kind byte, 0 for a message with no wire form.
func KindOf(m Message) Kind {
	var k byte
	switch m.(type) {
	case ReadReq:
		k = kindRead
	case ReadResp:
		k = kindReadResp
	case WriteReq:
		k = kindWrite
	case WriteResp:
		k = kindWriteResp
	case BatchReq, *BatchReq:
		k = kindBatch
	case BatchResp, *BatchResp:
		k = kindBatchResp
	case PrepareReq:
		k = kindPrepare
	case PrepareResp:
		k = kindPrepareResp
	case CommitReq, *CommitReq:
		k = kindCommit
	case CommitResp:
		k = kindCommitResp
	case AbortReq:
		k = kindAbort
	case AbortResp:
		k = kindAbortResp
	case DecisionReq:
		k = kindDecision
	case DecisionResp:
		k = kindDecisionResp
	case ProbeReq:
		k = kindProbe
	case ProbeResp:
		k = kindProbeResp
	case MissedFetchReq:
		k = kindMissedFetch
	case MissedFetchResp:
		k = kindMissedFetchResp
	case SpoolFetchReq:
		k = kindSpoolFetch
	case SpoolFetchResp:
		k = kindSpoolFetchResp
	}
	return Kind(k)
}

// EncodeMessage returns the wire form of a message.
func EncodeMessage(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 128), m)
}

// AppendMessage appends the wire form of a message to b, so a transport can
// build header and message in one buffer.
func AppendMessage(b []byte, m Message) ([]byte, error) {
	k := KindOf(m)
	switch {
	case m == nil:
		return b, errors.New("encode: nil message")
	case k == 0:
		return b, fmt.Errorf("encode: no wire form for %T (kind %q)", m, m.Kind())
	}
	b = append(b, byte(k))
	// The fields; a message with none is its kind byte alone.
	switch m := m.(type) {
	case ReadReq:
		b = appendTxn(b, m.Txn)
		b = appendString(b, string(m.Item))
		b = binary.AppendVarint(b, int64(m.Mode))
		b = binary.AppendUvarint(b, uint64(m.Expect))
		b = appendBool(appendBool(appendBool(b, m.Copier), m.ReadOld), m.NoRecord)
	case ReadResp:
		b = binary.AppendVarint(b, int64(m.Value))
		b = appendVersion(b, m.Version)
	case WriteReq:
		b = appendTxn(b, m.Txn)
		b = appendString(b, string(m.Item))
		b = binary.AppendVarint(b, int64(m.Value))
		b = binary.AppendVarint(b, int64(m.Mode))
		b = binary.AppendUvarint(b, uint64(m.Expect))
		b = appendSites(b, m.MissedBy)
	case BatchReq:
		b = appendBatch(b, &m)
	case *BatchReq:
		b = appendBatch(b, m)
	case BatchResp:
		b = appendBatchResp(b, &m)
	case *BatchResp:
		b = appendBatchResp(b, m)
	case PrepareReq:
		b = appendTxn(b, m.Txn)
	case PrepareResp:
		b = appendBool(b, m.Vote)
		b = binary.AppendUvarint(b, m.MaxSeq)
	case CommitReq:
		b = appendCommit(b, &m)
	case *CommitReq:
		b = appendCommit(b, m)
	case AbortReq:
		b = appendTxn(b, m.Txn)
		b = appendBool(b, m.ReadOnlyEnd)
	case DecisionReq:
		b = binary.AppendUvarint(b, uint64(m.Txn))
	case DecisionResp:
		b = binary.AppendVarint(b, int64(m.State))
		b = binary.AppendUvarint(b, m.CommitSeq)
	case ProbeResp:
		b = appendBool(b, m.Operational)
		b = binary.AppendUvarint(b, uint64(m.Session))
	case MissedFetchReq:
		b = binary.AppendVarint(b, int64(m.For))
	case MissedFetchResp:
		b = appendItems(b, m.Missed)
		sites := make([]SiteID, 0, len(m.Others))
		for s := range m.Others {
			sites = append(sites, s)
		}
		slices.Sort(sites)
		b = binary.AppendUvarint(b, uint64(len(sites)))
		for _, s := range sites {
			b = binary.AppendVarint(b, int64(s))
			b = appendItems(b, m.Others[s])
		}
	case SpoolFetchReq:
		b = binary.AppendVarint(b, int64(m.For))
	case SpoolFetchResp:
		b = binary.AppendUvarint(b, uint64(len(m.Updates)))
		for _, u := range m.Updates {
			b = appendSpooled(b, u)
		}
	}
	return b, nil
}

func appendBatch(b []byte, m *BatchReq) []byte {
	b = appendTxn(b, m.Txn)
	b = binary.AppendVarint(b, int64(m.Mode))
	b = binary.AppendUvarint(b, uint64(m.Expect))
	b = binary.AppendUvarint(b, uint64(len(m.Ops)))
	for _, op := range m.Ops {
		b = appendString(b, string(op.Item))
		b = binary.AppendVarint(b, int64(op.Value))
		b = appendSites(b, op.MissedBy)
	}
	return appendBool(b, m.Prepare)
}

func appendBatchResp(b []byte, m *BatchResp) []byte {
	return binary.AppendUvarint(appendBool(b, m.Vote), m.MaxSeq)
}

func appendCommit(b []byte, m *CommitReq) []byte {
	return binary.AppendUvarint(appendTxn(b, m.Txn), m.CommitSeq)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendTxn(b []byte, t TxnMeta) []byte {
	b = binary.AppendUvarint(b, uint64(t.ID))
	b = binary.AppendVarint(b, int64(t.Class))
	return binary.AppendVarint(b, int64(t.Origin))
}

func appendVersion(b []byte, v Version) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, v.Counter), uint64(v.Writer))
}

func appendSites(b []byte, sites []SiteID) []byte {
	b = binary.AppendUvarint(b, uint64(len(sites)))
	for _, s := range sites {
		b = binary.AppendVarint(b, int64(s))
	}
	return b
}

func appendItems(b []byte, items []Item) []byte {
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = appendString(b, string(it))
	}
	return b
}

func appendSpooled(b []byte, u SpooledUpdate) []byte {
	b = appendString(b, string(u.Item))
	b = binary.AppendVarint(b, int64(u.Value))
	b = binary.AppendUvarint(b, u.CommitSeq)
	return binary.AppendUvarint(b, uint64(u.Writer))
}

// DecodeMessage reconstructs the concrete message value from its wire form.
// Bytes after the last field this build knows are ignored (see the
// compatibility rule above); an unknown kind byte is an error. An absent
// collection and an empty one both decode as nil.
func DecodeMessage(data []byte) (Message, error) { return DecodeInto(data, nil, nil) }

// Room is where DecodeInto puts the kinds every replicated write decodes — a
// participant's BatchReq with its operations and its CommitReq, a
// coordinator's BatchResp — so that none is boxed: each comes back as a
// pointer into the room, and the room keeps its operation array for the next
// request. What a pointer shows is good until the room is decoded or answered
// into again.
type Room struct {
	Batch     BatchReq
	BatchResp BatchResp
	Commit    CommitReq
}

// A Roomer is a context with a Room of its own: a tcpnet handler's, whose
// handler answers a BatchReq into it, or a transaction attempt's, which its
// own reads of BatchResp replies decode into. Only the context itself
// counts, never one it was derived from, and a nil Room is none.
type Roomer interface {
	Room() *Room
}

// Interner maps an item name's wire bytes to the canonical Item of that
// name — a site's catalog does — so that decoding a name it knows makes no
// string.
type Interner interface {
	Intern(name []byte) (Item, bool)
}

// As returns m's message as a T, whether m holds a T or a pointer to one:
// what a receiver of a message decoded in place (a Room's) or sent by
// pointer reads it with.
func As[T Message](m Message) (T, bool) {
	if v, ok := m.(T); ok {
		return v, true
	}
	if p, ok := any(m).(*T); ok && p != nil {
		return *p, true
	}
	var zero T
	return zero, false
}

// DecodeInto is DecodeMessage with two economies: with a room, a BatchReq,
// BatchResp or CommitReq is decoded into it and returned as a pointer to it;
// with names, every item name names knows is its string, not a new one. A
// name names does not know decodes, and fails wherever it is used, as
// without.
func DecodeInto(data []byte, room *Room, names Interner) (Message, error) {
	if len(data) == 0 {
		return nil, errors.New("decode: empty message")
	}
	r := NewWireReader(data[1:])
	r.names = names
	var m Message
	// Go evaluates the calls in a composite literal in source order, which
	// is the declaration order the encoder wrote.
	switch data[0] {
	case kindRead:
		m = ReadReq{Txn: r.txn(), Item: r.item(), Mode: CheckMode(r.Int()), Expect: Session(r.Uint()),
			Copier: r.Bool(), ReadOld: r.Bool(), NoRecord: r.Bool()}
	case kindReadResp:
		m = ReadResp{Value: Value(r.Int()), Version: Version{Counter: r.Uint(), Writer: TxnID(r.Uint())}}
	case kindWrite:
		m = WriteReq{Txn: r.txn(), Item: r.item(), Value: Value(r.Int()), Mode: CheckMode(r.Int()),
			Expect: Session(r.Uint()), MissedBy: r.sites(nil)}
	case kindWriteResp:
		m = WriteResp{}
	case kindBatch:
		if room == nil {
			var req BatchReq
			r.batch(&req)
			m = req
		} else {
			r.batch(&room.Batch)
			m = &room.Batch
		}
	case kindBatchResp:
		resp := BatchResp{Vote: r.Bool(), MaxSeq: r.Uint()}
		if room == nil {
			m = resp
		} else {
			room.BatchResp = resp
			m = &room.BatchResp
		}
	case kindPrepare:
		m = PrepareReq{Txn: r.txn()}
	case kindPrepareResp:
		m = PrepareResp{Vote: r.Bool(), MaxSeq: r.Uint()}
	case kindCommit:
		req := CommitReq{Txn: r.txn(), CommitSeq: r.Uint()}
		if room == nil {
			m = req
		} else {
			room.Commit = req
			m = &room.Commit
		}
	case kindCommitResp:
		m = CommitResp{}
	case kindAbort:
		m = AbortReq{Txn: r.txn(), ReadOnlyEnd: r.Bool()}
	case kindAbortResp:
		m = AbortResp{}
	case kindDecision:
		m = DecisionReq{Txn: TxnID(r.Uint())}
	case kindDecisionResp:
		m = DecisionResp{State: TxnState(r.Int()), CommitSeq: r.Uint()}
	case kindProbe:
		m = ProbeReq{}
	case kindProbeResp:
		m = ProbeResp{Operational: r.Bool(), Session: Session(r.Uint())}
	case kindMissedFetch:
		m = MissedFetchReq{For: SiteID(r.Int())}
	case kindMissedFetchResp:
		resp := MissedFetchResp{Missed: r.items()}
		if n := r.Count(2); n > 0 {
			resp.Others = make(map[SiteID][]Item, n)
			for i := 0; i < n; i++ {
				s := SiteID(r.Int())
				resp.Others[s] = r.items()
			}
		}
		m = resp
	case kindSpoolFetch:
		m = SpoolFetchReq{For: SiteID(r.Int())}
	case kindSpoolFetchResp:
		var resp SpoolFetchResp
		if n := r.Count(4); n > 0 {
			resp.Updates = make([]SpooledUpdate, n)
			for i := range resp.Updates {
				resp.Updates[i] = r.spooled()
			}
		}
		m = resp
	default:
		return nil, fmt.Errorf("decode: unknown message kind byte %d", data[0])
	}
	if r.err != nil {
		return nil, fmt.Errorf("decode %s: %w", m.Kind(), r.err)
	}
	return m, nil
}

var errShort = errors.New("truncated or malformed field")

// WireReader consumes the codec's primitive fields from the front of a byte
// slice. The first malformed field latches Err and every later read returns
// zero, so a decoder reads all its fields and checks once. tcpnet reads its
// frame headers with it.
type WireReader struct {
	b     []byte
	err   error
	names Interner // what item names are looked up in, if anything
}

// NewWireReader reads from b.
func NewWireReader(b []byte) WireReader { return WireReader{b: b} }

// Err reports whether any read so far ran past the input or met a malformed
// varint.
func (r *WireReader) Err() error { return r.err }

func (r *WireReader) fail() {
	r.err = errShort
	r.b = nil
}

// Uint reads a uvarint.
func (r *WireReader) Uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a zigzag varint.
func (r *WireReader) Int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *WireReader) Byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte; any nonzero value is true.
func (r *WireReader) Bool() bool { return r.Byte() != 0 }

// Str reads a uvarint length and that many bytes.
func (r *WireReader) Str() string { return string(r.bytes()) }

// bytes reads what Str reads, without copying it.
func (r *WireReader) bytes() []byte {
	n := r.Uint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// item reads an item name: the interner's string for it when it has one.
func (r *WireReader) item() Item {
	b := r.bytes()
	if r.names != nil {
		if it, ok := r.names.Intern(b); ok {
			return it
		}
	}
	return Item(b)
}

// Count reads an element count and rejects one the remaining bytes cannot
// hold at minBytes per element, so a hostile count never sizes a make.
func (r *WireReader) Count(minBytes int) int {
	n := r.Uint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *WireReader) txn() TxnMeta {
	return TxnMeta{ID: TxnID(r.Uint()), Class: TxnClass(r.Int()), Origin: SiteID(r.Int())}
}

// batch decodes a BatchReq into req, reusing the arrays of its operations
// and their site lists.
func (r *WireReader) batch(req *BatchReq) {
	req.Txn, req.Mode, req.Expect = r.txn(), CheckMode(r.Int()), Session(r.Uint())
	ops := req.Ops[:0]
	if n := r.Count(3); n > 0 {
		ops = slices.Grow(ops, n)[:n]
		for i := range ops {
			op := &ops[i]
			op.Item, op.Value, op.MissedBy = r.item(), Value(r.Int()), r.sites(op.MissedBy)
		}
	} else if cap(ops) == 0 {
		ops = nil
	}
	req.Ops, req.Prepare = ops, r.Bool()
}

// sites reads a site list into buf's array when it has room; an empty list
// is nil.
func (r *WireReader) sites(buf []SiteID) []SiteID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := slices.Grow(buf[:0], n)[:n]
	for i := range out {
		out[i] = SiteID(r.Int())
	}
	return out
}

func (r *WireReader) items() []Item {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]Item, n)
	for i := range out {
		out[i] = r.item()
	}
	return out
}

func (r *WireReader) spooled() SpooledUpdate {
	return SpooledUpdate{Item: r.item(), Value: Value(r.Int()), CommitSeq: r.Uint(), Writer: TxnID(r.Uint())}
}

// errorCodes maps the sentinel taxonomy of errors.go to stable wire codes.
// An error that wraps one of these travels as its code plus the full
// message text, and is reconstructed on the receiving side so errors.Is
// still matches the sentinel — the transaction managers' retry decisions
// work identically over TCP and in process. Encoding picks the FIRST
// matching entry, so sentinels that wrap another sentinel (ErrNoReplica
// wraps ErrUnavailable) must precede the one they wrap. Codes are never
// renumbered or reused; 0 means "outside the taxonomy".
var errorCodes = []struct {
	code     byte
	sentinel error
}{
	{1, ErrSiteDown},
	{2, ErrDropped},
	{3, ErrSessionMismatch},
	{4, ErrNotOperational},
	{5, ErrUnreadable},
	{6, ErrLockTimeout},
	{7, ErrWounded},
	{8, ErrTxnAborted},
	{9, ErrUnknownTxn},
	{10, ErrTxnFinished},
	{11, ErrNoReplica},
	{12, ErrUnavailable},
	{13, ErrNoQuorum},
	{14, ErrTotalFailure},
	{15, ErrAbortRequested},
	{16, ErrUnknownPolicy},
}

// WireSentinels lists every protocol error sentinel registered in the wire
// table, in table order. The codec tests walk it — together with a source
// scan of errors.go — so a newly exported sentinel cannot be silently
// missing from the wire mapping.
func WireSentinels() []error {
	out := make([]error, len(errorCodes))
	for i, e := range errorCodes {
		out[i] = e.sentinel
	}
	return out
}

// WireError is the wire form of a handler error: one code byte, then the
// text as a length-prefixed string.
type WireError struct {
	// Code identifies the wrapped sentinel; 0 for errors outside the
	// protocol taxonomy.
	Code byte
	// Msg is the full rendered error text.
	Msg string
}

// EncodeError converts a handler error to its wire form.
func EncodeError(err error) *WireError {
	if err == nil {
		return nil
	}
	w := &WireError{Msg: err.Error()}
	for _, e := range errorCodes {
		if errors.Is(err, e.sentinel) {
			w.Code = e.code
			break
		}
	}
	return w
}

// Append appends the wire bytes of w to b.
func (w *WireError) Append(b []byte) []byte {
	return appendString(append(b, w.Code), w.Msg)
}

// DecodeError parses the bytes Append wrote, ignoring any that follow.
func DecodeError(data []byte) (*WireError, error) {
	if len(data) == 0 {
		return nil, errors.New("decode error: empty")
	}
	r := NewWireReader(data[1:])
	w := &WireError{Code: data[0], Msg: r.Str()}
	if r.err != nil {
		return nil, fmt.Errorf("decode error: %w", r.err)
	}
	return w, nil
}

// remoteError carries a decoded wire error: the original text, wrapping the
// matched sentinel so errors.Is keeps working across the wire.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// Err reconstructs the Go error, re-attaching the matched sentinel. A code
// this build does not know (a newer peer's) keeps its text and matches no
// sentinel.
func (w *WireError) Err() error {
	if w == nil {
		return nil
	}
	for _, e := range errorCodes {
		if e.code == w.Code {
			if w.Msg == e.sentinel.Error() {
				return e.sentinel
			}
			return &remoteError{msg: w.Msg, sentinel: e.sentinel}
		}
	}
	return errors.New(w.Msg)
}
