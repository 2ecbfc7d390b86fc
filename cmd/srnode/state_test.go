package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/wal"
)

const walLine = `{"Type":3,"Role":1,"Txn":4,"CommitSeq":0,"Writes":null,"Origin":0}` + "\n"

func TestDecodeWAL(t *testing.T) {
	for _, c := range []struct {
		name, in string
		recs     int
		end      int
		err      string
	}{
		{name: "empty", in: ""},
		{name: "complete", in: walLine + walLine, recs: 2, end: 2 * len(walLine)},
		{name: "torn tail dropped", in: walLine + `{"Type":2,"Ro`, recs: 1, end: len(walLine)},
		{name: "unterminated record dropped", in: walLine + strings.TrimSuffix(walLine, "\n"), recs: 1, end: len(walLine)},
		{name: "corrupt mid-file", in: walLine + "garbage\n" + walLine, err: "line 2:"},
		{name: "corrupt terminated last line", in: walLine + `{"Type":2,"Ro` + "\n", err: "line 2:"},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs, end, err := decodeWAL(strings.NewReader(c.in))
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one naming %q", err, c.err)
				}
				return
			}
			if err != nil || len(recs) != c.recs || end != int64(c.end) {
				t.Fatalf("decodeWAL = %d records, end %d, %v; want %d, %d", len(recs), end, err, c.recs, c.end)
			}
		})
	}
}

func openSinks(t *testing.T, dir string) (*stableState, func(proto.Session), func([]wal.Record)) {
	t.Helper()
	st, err := loadState(dir)
	if err != nil {
		t.Fatalf("loadState: %v", err)
	}
	session, walSink, err := st.sinks()
	if err != nil {
		t.Fatalf("sinks: %v", err)
	}
	return st, session, walSink
}

// TestTornTailSurvivesTwoRestarts: a kill mid-append leaves a fragment; the
// restart after it appends a record, and the restart after that must still
// load every complete record rather than find the new one glued onto the
// fragment.
func TestTornTailSurvivesTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.jsonl")
	if err := os.WriteFile(path, []byte(walLine+`{"Type":2,"Ro`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, walSink := openSinks(t, dir)
	if len(st.Records) != 1 {
		t.Fatalf("first restart loaded %d records, want 1", len(st.Records))
	}
	walSink([]wal.Record{{Type: wal.RecordCommit, Role: wal.RoleCoordinator, Txn: 5, CommitSeq: 2}})

	again, err := loadState(dir)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if len(again.Records) != 2 || again.Records[1].Txn != 5 {
		t.Fatalf("second restart loaded %+v, want the first record and txn 5", again.Records)
	}
}

// TestStateRoundTrip: what the sinks persist, loadState returns unchanged.
func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := []wal.Record{
		{Type: wal.RecordPrepare, Role: wal.RoleParticipant, Txn: 7, Origin: 2, Writes: []wal.WriteRec{
			{Item: "x", Value: -3},
			{Item: "ns-2 <&>", Value: 1, Refresh: true, Version: proto.Version{Counter: 1<<64 - 1, Writer: 9}},
		}},
		{Type: wal.RecordCommit, Role: wal.RoleParticipant, Txn: 7, CommitSeq: 11},
		{Type: wal.RecordRedo, Role: wal.RoleParticipant, Txn: 7, Writes: []wal.WriteRec{}},
	}
	_, session, walSink := openSinks(t, dir)
	if empty, err := loadState(dir); err != nil || len(empty.Records) != 0 {
		t.Fatalf("empty wal.jsonl loads as %v, %v", empty, err)
	}
	session(3)
	walSink(recs[:2])
	session(4)
	walSink(recs[2:])

	st, err := loadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session != 4 || !reflect.DeepEqual(st.Records, recs) {
		t.Fatalf("loaded session %d, records %+v; want 4, %+v", st.Session, st.Records, recs)
	}
	if _, err := os.Stat(filepath.Join(dir, "session.tmp")); !os.IsNotExist(err) {
		t.Fatalf("session.tmp left behind: %v", err)
	}
}

// TestWALSinkAllocatesNothing: after its first batch the sink encodes into
// the buffer it keeps.
func TestWALSinkAllocatesNothing(t *testing.T) {
	_, _, walSink := openSinks(t, t.TempDir())
	writes := make([]wal.WriteRec, 4)
	for i := range writes {
		writes[i] = wal.WriteRec{Item: proto.Item("k0004" + string(rune('0'+i))), Value: proto.Value(i)}
	}
	batch := []wal.Record{{Type: wal.RecordPrepare, Role: wal.RoleParticipant, Txn: 1, Origin: 1, Writes: writes}}
	if n := testing.AllocsPerRun(20, func() { walSink(batch) }); n != 0 {
		t.Fatalf("WAL sink allocates %v per batch, want 0", n)
	}
}
