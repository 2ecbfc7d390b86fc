package wal

import (
	"bytes"
	"encoding/json"
	"testing"

	"siterecovery/internal/proto"
)

// FuzzRecordJSON: appendRecordJSON writes byte for byte what
// json.Encoder.Encode writes, so a log line reads back through
// encoding/json exactly as before.
func FuzzRecordJSON(f *testing.F) {
	for _, s := range []struct {
		typ, role, origin int
		txn, seq          uint64
		nilWrites         bool
		n                 uint8
		item              string
		value             int64
		refresh           bool
		counter, writer   uint64
	}{
		{typ: 3, role: 1, txn: 4, nilWrites: true, n: 1},
		{typ: 4, role: 2, txn: 4},
		{typ: 1, role: 2, txn: 1<<64 - 1, seq: 1<<64 - 1, origin: -1, n: 1, item: "k00042", value: -1 << 63, counter: 1<<64 - 1, writer: 1<<64 - 1},
		{typ: -2, role: -7, origin: 1 << 40, n: 3, item: "ns-3", value: 1<<63 - 1, refresh: true},
		{n: 1, item: "<a&b>"},
		{n: 1, item: `quote " here`},
		{n: 1, item: `back\slash`},
		{n: 1, item: "line\u2028sep\u2029"},
		{n: 1, item: "café 日"},
		{n: 1, item: "bad\xff\xfeutf8"},
		{n: 1, item: "ctl\x00\x1f\x7f"},
	} {
		f.Add(s.typ, s.role, s.origin, s.txn, s.seq, s.nilWrites, s.n, s.item, s.value, s.refresh, s.counter, s.writer)
	}
	f.Fuzz(func(t *testing.T, typ, role, origin int, txn, seq uint64, nilWrites bool, n uint8, item string, value int64, refresh bool, counter, writer uint64) {
		rec := Record{Type: RecordType(typ), Role: Role(role), Txn: proto.TxnID(txn), CommitSeq: seq, Origin: proto.SiteID(origin)}
		if !nilWrites {
			rec.Writes = []WriteRec{}
			w := WriteRec{Item: proto.Item(item), Value: proto.Value(value), Refresh: refresh, Version: proto.Version{Counter: counter, Writer: proto.TxnID(writer)}}
			for i := 0; i < int(n%4); i++ {
				rec.Writes = append(rec.Writes, w)
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix ")
		got := appendRecordJSON(prefix, &rec)
		if !bytes.Equal(got[len(prefix):], want.Bytes()) || string(got[:len(prefix)]) != "prefix " {
			t.Fatalf("appendRecordJSON:\n got %q\nwant %q", got, want.Bytes())
		}
	})
}
