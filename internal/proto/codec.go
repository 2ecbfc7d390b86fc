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

// EncodeMessage returns the wire form of a message.
func EncodeMessage(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 128), m)
}

// AppendMessage appends the wire form of a message to b, so a transport can
// build header and message in one buffer.
func AppendMessage(b []byte, m Message) ([]byte, error) {
	switch m := m.(type) {
	case ReadReq:
		b = appendTxn(append(b, kindRead), m.Txn)
		b = appendString(b, string(m.Item))
		b = binary.AppendVarint(b, int64(m.Mode))
		b = binary.AppendUvarint(b, uint64(m.Expect))
		b = appendBool(appendBool(appendBool(b, m.Copier), m.ReadOld), m.NoRecord)
	case ReadResp:
		b = binary.AppendVarint(append(b, kindReadResp), int64(m.Value))
		b = appendVersion(b, m.Version)
	case WriteReq:
		b = appendTxn(append(b, kindWrite), m.Txn)
		b = appendString(b, string(m.Item))
		b = binary.AppendVarint(b, int64(m.Value))
		b = binary.AppendVarint(b, int64(m.Mode))
		b = binary.AppendUvarint(b, uint64(m.Expect))
		b = appendSites(b, m.MissedBy)
	case WriteResp:
		b = append(b, kindWriteResp)
	case BatchReq:
		b = appendTxn(append(b, kindBatch), m.Txn)
		b = binary.AppendVarint(b, int64(m.Mode))
		b = binary.AppendUvarint(b, uint64(m.Expect))
		b = binary.AppendUvarint(b, uint64(len(m.Ops)))
		for _, op := range m.Ops {
			b = appendString(b, string(op.Item))
			b = binary.AppendVarint(b, int64(op.Value))
			b = appendSites(b, op.MissedBy)
		}
		b = appendBool(b, m.Prepare)
	case BatchResp:
		b = appendBool(append(b, kindBatchResp), m.Vote)
		b = binary.AppendUvarint(b, m.MaxSeq)
	case PrepareReq:
		b = appendTxn(append(b, kindPrepare), m.Txn)
	case PrepareResp:
		b = appendBool(append(b, kindPrepareResp), m.Vote)
		b = binary.AppendUvarint(b, m.MaxSeq)
	case CommitReq:
		b = appendTxn(append(b, kindCommit), m.Txn)
		b = binary.AppendUvarint(b, m.CommitSeq)
	case CommitResp:
		b = append(b, kindCommitResp)
	case AbortReq:
		b = appendTxn(append(b, kindAbort), m.Txn)
		b = appendBool(b, m.ReadOnlyEnd)
	case AbortResp:
		b = append(b, kindAbortResp)
	case DecisionReq:
		b = binary.AppendUvarint(append(b, kindDecision), uint64(m.Txn))
	case DecisionResp:
		b = binary.AppendVarint(append(b, kindDecisionResp), int64(m.State))
		b = binary.AppendUvarint(b, m.CommitSeq)
	case ProbeReq:
		b = append(b, kindProbe)
	case ProbeResp:
		b = appendBool(append(b, kindProbeResp), m.Operational)
		b = binary.AppendUvarint(b, uint64(m.Session))
	case MissedFetchReq:
		b = binary.AppendVarint(append(b, kindMissedFetch), int64(m.For))
	case MissedFetchResp:
		b = appendItems(append(b, kindMissedFetchResp), m.Missed)
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
		b = binary.AppendVarint(append(b, kindSpoolFetch), int64(m.For))
	case SpoolFetchResp:
		b = binary.AppendUvarint(append(b, kindSpoolFetchResp), uint64(len(m.Updates)))
		for _, u := range m.Updates {
			b = appendSpooled(b, u)
		}
	case nil:
		return b, errors.New("encode: nil message")
	default:
		return b, fmt.Errorf("encode: no wire form for %T (kind %q)", m, m.Kind())
	}
	return b, nil
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
func DecodeMessage(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, errors.New("decode: empty message")
	}
	r := NewWireReader(data[1:])
	var m Message
	// Go evaluates the calls in a composite literal in source order, which
	// is the declaration order the encoder wrote.
	switch data[0] {
	case kindRead:
		m = ReadReq{Txn: r.txn(), Item: Item(r.Str()), Mode: CheckMode(r.Int()), Expect: Session(r.Uint()),
			Copier: r.Bool(), ReadOld: r.Bool(), NoRecord: r.Bool()}
	case kindReadResp:
		m = ReadResp{Value: Value(r.Int()), Version: Version{Counter: r.Uint(), Writer: TxnID(r.Uint())}}
	case kindWrite:
		m = WriteReq{Txn: r.txn(), Item: Item(r.Str()), Value: Value(r.Int()), Mode: CheckMode(r.Int()),
			Expect: Session(r.Uint()), MissedBy: r.sites()}
	case kindWriteResp:
		m = WriteResp{}
	case kindBatch:
		req := BatchReq{Txn: r.txn(), Mode: CheckMode(r.Int()), Expect: Session(r.Uint())}
		if n := r.Count(3); n > 0 {
			req.Ops = make([]BatchOp, n)
			for i := range req.Ops {
				req.Ops[i] = BatchOp{Item: Item(r.Str()), Value: Value(r.Int()), MissedBy: r.sites()}
			}
		}
		req.Prepare = r.Bool()
		m = req
	case kindBatchResp:
		m = BatchResp{Vote: r.Bool(), MaxSeq: r.Uint()}
	case kindPrepare:
		m = PrepareReq{Txn: r.txn()}
	case kindPrepareResp:
		m = PrepareResp{Vote: r.Bool(), MaxSeq: r.Uint()}
	case kindCommit:
		m = CommitReq{Txn: r.txn(), CommitSeq: r.Uint()}
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
	b   []byte
	err error
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
func (r *WireReader) Str() string {
	n := r.Uint()
	if n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
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

func (r *WireReader) sites() []SiteID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]SiteID, n)
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
		out[i] = Item(r.Str())
	}
	return out
}

func (r *WireReader) spooled() SpooledUpdate {
	return SpooledUpdate{Item: Item(r.Str()), Value: Value(r.Int()), CommitSeq: r.Uint(), Writer: TxnID(r.Uint())}
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
