package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// wireSamples returns one populated value per message kind, exercising the
// edge fields a naive codec would drop (Expect, MissedBy, NoRecord, nested
// maps and slices).
func wireSamples() []Message {
	return []Message{
		ReadReq{
			Txn:      TxnMeta{ID: 42, Class: ClassUser, Origin: 3},
			Item:     "x",
			Mode:     CheckSession,
			Expect:   7,
			Copier:   true,
			ReadOld:  true,
			NoRecord: true,
		},
		ReadResp{Value: -9, Version: Version{Counter: 12, Writer: 42}},
		WriteReq{
			Txn:      TxnMeta{ID: 43, Class: ClassCopier, Origin: 1},
			Item:     NSItem(2),
			Value:    77,
			Mode:     CheckSession,
			Expect:   3,
			MissedBy: []SiteID{2, 5},
		},
		WriteResp{},
		BatchReq{
			Txn:    TxnMeta{ID: 48, Class: ClassUser, Origin: 2},
			Mode:   CheckSession,
			Expect: 4,
			Ops: []BatchOp{
				{Item: "x", Value: 10, MissedBy: []SiteID{3}},
				{Item: "y", Value: -2},
			},
			Prepare: true,
		},
		BatchResp{Vote: true, MaxSeq: 71},
		PrepareReq{Txn: TxnMeta{ID: 44, Class: ClassControl1, Origin: 2}},
		PrepareResp{Vote: true, MaxSeq: 64},
		CommitReq{Txn: TxnMeta{ID: 44, Class: ClassControl2, Origin: 2}, CommitSeq: 99},
		CommitResp{},
		AbortReq{Txn: TxnMeta{ID: 45, Class: ClassUser, Origin: 4}, ReadOnlyEnd: true},
		AbortResp{},
		DecisionReq{Txn: 46},
		DecisionResp{State: StateCommitted, CommitSeq: 100},
		ProbeReq{},
		ProbeResp{Operational: true, Session: 5},
		MissedFetchReq{For: 3},
		MissedFetchResp{
			Missed: []Item{"a", "b"},
			Others: map[SiteID][]Item{4: {"c"}, 5: {"d", "e"}},
		},
		SpoolFetchReq{For: 1},
		SpoolFetchResp{Updates: []SpooledUpdate{
			{Item: "x", Value: 1, CommitSeq: 2, Writer: 3},
			{Item: "y", Value: -4, CommitSeq: 5, Writer: 6},
		}},
	}
}

// retiredKinds are kind bytes of messages that were deleted. They are never
// reused, so they decode as unknown.
var retiredKinds = map[byte]string{19: "spool.append", 20: "spool.append.resp"}

func TestCodecRoundTripsEveryKind(t *testing.T) {
	covered := make(map[byte]bool, kindMax)
	for _, msg := range wireSamples() {
		data, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %s: %v", msg.Kind(), err)
		}
		covered[data[0]] = true
		got, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("decode %s: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", msg.Kind(), got, msg)
		}
		again, err := EncodeMessage(got)
		if err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s re-encodes to %x (err %v), first encoding was %x", msg.Kind(), again, err, data)
		}
	}
	// Every live kind byte must have a sample, so a new message type cannot
	// ship without wire coverage, and no retired one may decode.
	for k := byte(1); k <= kindMax; k++ {
		if name, retired := retiredKinds[k]; retired {
			if covered[k] {
				t.Errorf("kind byte %d (retired %s) is encoded again", k, name)
			}
			if msg, err := DecodeMessage([]byte{k, 0}); err == nil {
				t.Errorf("retired kind byte %d (%s) decoded as %#v", k, name, msg)
			}
		} else if !covered[k] {
			t.Errorf("kind byte %d has no round-trip sample", k)
		}
	}
	if len(covered)+len(retiredKinds) != int(kindMax) {
		t.Errorf("samples cover %d kind bytes and %d are retired, the codec defines %d", len(covered), len(retiredKinds), kindMax)
	}
}

// TestCodecCanonicalizesEmptyCollections pins what the wire does to the
// nil-versus-empty distinction: both encode as a zero count, so equal
// content gives equal bytes, and both decode as nil.
func TestCodecCanonicalizesEmptyCollections(t *testing.T) {
	cases := []struct{ empty, canonical Message }{
		{WriteReq{Item: "x", MissedBy: []SiteID{}}, WriteReq{Item: "x"}},
		{BatchReq{Ops: []BatchOp{}}, BatchReq{}},
		{BatchReq{Ops: []BatchOp{{Item: "x", MissedBy: []SiteID{}}}}, BatchReq{Ops: []BatchOp{{Item: "x"}}}},
		{MissedFetchResp{Missed: []Item{}, Others: map[SiteID][]Item{}}, MissedFetchResp{}},
		{MissedFetchResp{Others: map[SiteID][]Item{2: {}}}, MissedFetchResp{Others: map[SiteID][]Item{2: nil}}},
		{SpoolFetchResp{Updates: []SpooledUpdate{}}, SpoolFetchResp{}},
	}
	for _, c := range cases {
		a, err := EncodeMessage(c.empty)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeMessage(c.canonical)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: empty collections encode as %x, nil ones as %x", c.empty.Kind(), a, b)
		}
		got, err := DecodeMessage(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.canonical) {
			t.Errorf("%s decoded as %#v, want %#v", c.empty.Kind(), got, c.canonical)
		}
	}
}

// TestMapEncodesInKeyOrder: Go randomizes map iteration, the wire must not.
func TestMapEncodesInKeyOrder(t *testing.T) {
	others := make(map[SiteID][]Item)
	for s := SiteID(1); s <= 40; s++ {
		others[s] = []Item{Item(s.String())}
	}
	first, err := EncodeMessage(MissedFetchResp{Others: others})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		next, _ := EncodeMessage(MissedFetchResp{Others: others})
		if !bytes.Equal(first, next) {
			t.Fatalf("equal maps gave different bytes on encoding %d", i)
		}
	}
}

func TestDecodeRejectsUnknownKindAndGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {0}, {kindMax + 1}, {0xff, 1, 2, 3}} {
		if msg, err := DecodeMessage(data); err == nil {
			t.Errorf("DecodeMessage(%x) = %#v, want an error", data, msg)
		}
	}
	// Every proper prefix of a message whose last field is required is an
	// error, never a partial value.
	full, err := EncodeMessage(wireSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(full); n++ {
		if msg, err := DecodeMessage(full[:n]); err == nil {
			t.Errorf("truncated to %d of %d bytes decoded as %#v", n, len(full), msg)
		}
	}
	// An element count the remaining bytes cannot hold is refused before
	// anything is allocated for it: 2^20 updates would be 40 MB.
	huge := binary.AppendUvarint([]byte{kindSpoolFetchResp}, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeMessage(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a 2^20-element count with no elements decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("refusing a hostile count allocated %d bytes", grew)
	}
}

// TestCodecAllocBound keeps reflection from creeping back: a 4-op batch
// costs the encoder its buffer, and the decoder the Ops slice, one string
// per item and the boxed message.
func TestCodecAllocBound(t *testing.T) {
	req := BatchReq{
		Txn: TxnMeta{ID: 1 << 40, Class: ClassUser, Origin: 1}, Mode: CheckSession, Expect: 3, Prepare: true,
		Ops: []BatchOp{{Item: "k00017", Value: 1}, {Item: "k00250", Value: 2}, {Item: "k01234", Value: 3}, {Item: "k04000", Value: 4}},
	}
	var msg Message = req
	n := testing.AllocsPerRun(200, func() {
		b, err := EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeMessage(b); err != nil {
			t.Fatal(err)
		}
	})
	if n > 8 {
		t.Errorf("encode+decode of a 4-op BatchReq = %v allocs, want <= 8", n)
	}
}

func TestWireErrorPreservesSentinels(t *testing.T) {
	cases := []error{
		ErrSiteDown,
		ErrDropped,
		ErrSessionMismatch,
		ErrNotOperational,
		ErrUnreadable,
		ErrLockTimeout,
		ErrWounded,
		ErrTxnAborted,
		ErrUnknownTxn,
		ErrUnavailable,
		ErrNoQuorum,
		ErrTotalFailure,
		ErrAbortRequested,
	}
	for _, sentinel := range cases {
		wrapped := fmt.Errorf("site2 serving t9: %w", sentinel)
		back := EncodeError(wrapped).Err()
		if !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v lost across the wire (got %v)", sentinel, back)
		}
		if back.Error() != wrapped.Error() {
			t.Errorf("error text changed: got %q, want %q", back.Error(), wrapped.Error())
		}
		if Retryable(wrapped) != Retryable(back) {
			t.Errorf("retryability of %v changed across the wire", sentinel)
		}
		// A bare sentinel comes back as the identical value.
		if got := EncodeError(sentinel).Err(); got != sentinel {
			t.Errorf("bare sentinel %v reconstructed as %v", sentinel, got)
		}
	}
	// Errors outside the taxonomy keep their text but no sentinel.
	opaque := errors.New("disk on fire")
	back := EncodeError(opaque).Err()
	if back.Error() != opaque.Error() {
		t.Errorf("opaque error text changed: %q", back.Error())
	}
	if Retryable(back) {
		t.Error("opaque error became retryable")
	}
	// So does a code from a newer peer that this build has no sentinel for.
	if back := (&WireError{Code: 250, Msg: "site2: quota exceeded"}).Err(); back.Error() != "site2: quota exceeded" || Retryable(back) {
		t.Errorf("unknown wire code reconstructed as %v (retryable %v)", back, Retryable(back))
	}
	if EncodeError(nil) != nil {
		t.Error("EncodeError(nil) != nil")
	}
	var nilWire *WireError
	if nilWire.Err() != nil {
		t.Error("nil WireError.Err() != nil")
	}
}
