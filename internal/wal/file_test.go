package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/rawio/rawiotest"
)

const walLine = `{"Type":3,"Role":1,"Txn":4,"CommitSeq":0,"Writes":null,"Origin":0}` + "\n"

// openT opens the log in dir, failing the test on a persist error.
func openT(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, func(err error) { t.Errorf("wal persist: %v", err) })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// writeFile leaves data in dir's log file, as a dead incarnation would.
func writeFile(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

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
			rawiotest.Run(t, func(t *testing.T, dir string) {
				writeFile(t, dir, []byte(c.in))
				l, err := Open(dir, func(err error) { t.Errorf("wal persist: %v", err) })
				if c.err != "" {
					if err == nil || !strings.Contains(err.Error(), c.err) {
						t.Fatalf("err = %v, want one naming %q", err, c.err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if n, end := l.DurableLSN(), fileSize(t, dir); n != uint64(c.recs) || end != int64(c.end) {
					t.Fatalf("Open loaded %d records, file now %d bytes; want %d, %d", n, end, c.recs, c.end)
				}
			})
		})
	}
}

// TestTornTailSurvivesTwoRestarts: a kill mid-append leaves a fragment; the
// restart after it appends a record, and the restart after that must still
// load every complete record rather than find the new one glued onto the
// fragment.
func TestTornTailSurvivesTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, []byte(walLine+`{"Type":2,"Ro`))
	l := openT(t, dir)
	if n := l.DurableLSN(); n != 1 {
		t.Fatalf("first restart loaded %d records, want 1", n)
	}
	l.Append(Record{Type: RecordCommit, Role: RoleCoordinator, Txn: 5, CommitSeq: 2})

	again := openT(t, dir)
	if st, seq := again.Outcome(5); again.DurableLSN() != 2 || st != proto.StateCommitted || seq != 2 {
		t.Fatalf("second restart: LSN %d, Outcome(5) = (%v, %d); want 2 records and txn 5 committed at 2", again.DurableLSN(), st, seq)
	}
}

// TestOpenRoundTrip: what a log appends, a reopen of its directory answers
// from unchanged, and the directory holds the log file and nothing else.
func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if l.DurableLSN() != 0 || l.Session() != InitialSession || fileSize(t, dir) != 0 {
		t.Fatalf("fresh log: LSN %d, session %d, %d bytes", l.DurableLSN(), l.Session(), fileSize(t, dir))
	}
	writes := []WriteRec{
		{Item: "x", Value: -3},
		{Item: "ns-2 <&>", Value: 1, Refresh: true, Version: proto.Version{Counter: 1<<64 - 1, Writer: 9}},
	}
	redo := []WriteRec{{Item: "y", Value: 5, Version: proto.Version{Counter: 11, Writer: 8}}}
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: 7, Origin: 2, Writes: writes})
	l.NextSession()
	l.AppendGroup([]Record{
		{Type: RecordCommit, Role: RoleCoordinator, Txn: 8, CommitSeq: 11},
		{Type: RecordAbort, Role: RoleParticipant, Txn: 9},
	})
	l.AppendRedo(8, redo)
	l.NextSession()

	re := openT(t, dir)
	if re.DurableLSN() != 6 || re.Session() != 3 {
		t.Fatalf("reopened LSN %d, session %d; want 6, 3", re.DurableLSN(), re.Session())
	}
	if st, seq := re.Outcome(8); st != proto.StateCommitted || seq != 11 {
		t.Fatalf("Outcome(8) = (%v, %d), want committed at 11", st, seq)
	}
	if st, _ := re.Outcome(9); st != proto.StateAborted {
		t.Fatalf("Outcome(9) = %v, want aborted", st)
	}
	if got, origin := re.PreparedRecord(7); !reflect.DeepEqual(re.InDoubt(), []proto.TxnID{7}) || origin != 2 || !reflect.DeepEqual(got, writes) {
		t.Fatalf("in doubt %v, PreparedRecord(7) = (%+v, %v); want [7], (%+v, 2)", re.InDoubt(), got, origin, writes)
	}
	if got := re.ScanRedo(); len(got) != 1 || got[0].Txn != 8 || !reflect.DeepEqual(got[0].Writes, redo) {
		t.Fatalf("ScanRedo = %+v, want txn 8's %+v", got, redo)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("directory holds %v (%v), want only %s", entries, err, FileName)
	}
}

// TestSessionRecordIsDurableAndContinues: the session record is in the file
// when NextSession returns, and a reopen continues the counter from it.
func TestSessionRecordIsDurableAndContinues(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if s := l.NextSession(); s != InitialSession+1 {
		t.Fatalf("first NextSession = %d, want %d", s, InitialSession+1)
	}
	const line = `{"Type":5,"Role":0,"Txn":0,"CommitSeq":2,"Writes":null,"Origin":0}` + "\n"
	if b, err := os.ReadFile(filepath.Join(dir, FileName)); err != nil || string(b) != line {
		t.Fatalf("file after NextSession = %q, %v; want %q", b, err, line)
	}
	re := openT(t, dir)
	if s, next := re.Session(), re.NextSession(); s != 2 || next != 3 {
		t.Fatalf("reopened Session = %d, NextSession = %d; want 2, 3", s, next)
	}
	if s := openT(t, dir).Session(); s != 3 {
		t.Fatalf("third open Session = %d, want 3", s)
	}
}

// TestWALSinkAllocatesNothing: after its first batch the sink encodes into
// the buffer it keeps, and forces it on either path without allocating.
func TestWALSinkAllocatesNothing(t *testing.T) {
	rawiotest.Run(t, testWALSinkAllocatesNothing)
}

func testWALSinkAllocatesNothing(t *testing.T, dir string) {
	l := openT(t, dir)
	writes := make([]WriteRec, 4)
	for i := range writes {
		writes[i] = WriteRec{Item: proto.Item("k0004" + string(rune('0'+i))), Value: proto.Value(i)}
	}
	batch := []Record{{Type: RecordPrepare, Role: RoleParticipant, Txn: 1, Origin: 1, Writes: writes}}
	if n := testing.AllocsPerRun(20, func() { l.sink(batch) }); n != 0 {
		t.Fatalf("WAL sink allocates %v per batch, want 0", n)
	}
}

// loaded is everything a log answers from after a load.
type loaded struct {
	LSN       uint64
	Session   proto.Session
	Decisions int
	Committed []proto.TxnID
	InDoubt   []proto.TxnID
	Redo      []Record
}

func snapshot(l *Log) loaded {
	inDoubt := l.InDoubt()
	slices.Sort(inDoubt)
	return loaded{l.DurableLSN(), l.Session(), l.Decisions(), l.Committed(), inDoubt, l.ScanRedo()}
}

var lineErr = regexp.MustCompile(`: line [0-9]+: `)

// FuzzWALTail: whatever bytes a dead incarnation left, Open either refuses
// them naming a line, or loads every complete line and truncates the file to
// them; a second Open over the result loads the same indexes and counter.
func FuzzWALTail(f *testing.F) {
	for _, s := range []string{
		"",
		walLine + walLine,
		walLine + `{"Type":2,"Ro`,
		walLine + "garbage\n",
		"\n\r\n" + walLine + "\n",
		"null\n{}\n",
		`{"Type":5,"CommitSeq":9}` + "\n" + `{"Type":5,"CommitSeq":4}` + "\n",
		`{"Type":1,"Role":2,"Txn":3,"CommitSeq":0,"Writes":[{"Item":"x","Value":1,"Refresh":false,"Version":{"Counter":0,"Writer":0}}],"Origin":1}` + "\n",
		`{"Type":4,"Role":2,"Txn":3,"Writes":[{"Item":"x","Value":1}]}` + "\n" + `{"Type":2,"Role":1,"Txn":3,"CommitSeq":6}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rawiotest.Run(t, func(t *testing.T, dir string) {
			writeFile(t, dir, data)
			l, err := Open(dir, func(err error) { t.Errorf("wal persist: %v", err) })
			if err != nil {
				if !lineErr.MatchString(err.Error()) {
					t.Fatalf("refusal %q names no line", err)
				}
				return
			}
			defer l.Close()
			want := data[:bytes.LastIndexByte(data, '\n')+1]
			if got, err := os.ReadFile(filepath.Join(dir, FileName)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("file after Open = %q, %v; want its complete lines %q", got, err, want)
			}
			var lines uint64
			for _, line := range bytes.SplitAfter(want, []byte("\n")) {
				if len(bytes.TrimRight(line, "\r\n")) > 0 {
					lines++
				}
			}
			first := snapshot(l)
			if first.LSN != lines {
				t.Fatalf("loaded %d records from %d non-blank lines", first.LSN, lines)
			}
			again := openT(t, dir)
			if second := snapshot(again); !reflect.DeepEqual(first, second) {
				t.Fatalf("second Open loaded %+v, first %+v", second, first)
			}
		})
	})
}
