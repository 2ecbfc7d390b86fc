// Package wal is a per-site stable write-ahead log, and the only stable
// state a site keeps beside its data pages.
//
// The log durably remembers two-phase-commit state so a site can answer
// outcome queries (cooperative termination) and find its in-doubt
// transactions after a crash, and the §3.1 session counter as session
// records (NextSession), so a session number is durable before it is used
// and never reused. For the force-at-commit in-memory engine that is its
// whole job: installed values need no redo. The disk engine (storage/disk)
// additionally appends physical redo records (AppendRedo) — item, value,
// version triples forced before the corresponding heap page is dirtied —
// and replays them at restart to rebuild committed state that never reached
// the heap file. Records survive Crash unconditionally; the log is the
// "stable storage" of the paper's model.
//
// A Log keeps only the indexes it answers from; the records themselves exist
// only in the sink. Open keeps them in a file (file.go) and rebuilds the
// indexes from it at restart; New keeps them nowhere unless SetSink says.
package wal

import (
	"os"
	"slices"
	"sync"

	"siterecovery/internal/proto"
)

// RecordType classifies log records.
type RecordType int

// Record types.
const (
	// RecordPrepare is written by a participant when it votes yes. Until a
	// decision record follows, the transaction is in doubt at this site.
	RecordPrepare RecordType = iota + 1
	// RecordCommit is a commit decision (coordinator) or a performed commit
	// (participant).
	RecordCommit
	// RecordAbort is an abort decision or a performed abort.
	RecordAbort
	// RecordRedo is a physical redo record: the values a commit installed,
	// with their final versions, forced to the log before the disk engine
	// dirties the corresponding heap pages (WAL-before-data). The
	// force-at-commit in-memory engine never writes these.
	RecordRedo
	// RecordSession is one advance of the §3.1 session counter; CommitSeq
	// carries the new value, and no other field is set.
	RecordSession
)

// Role says which 2PC role wrote the record.
type Role int

// Roles.
const (
	RoleCoordinator Role = iota + 1
	RoleParticipant
)

// InitialSession is the session number every site starts with, so the
// counter of a log holding no session record: a cluster models an
// already-running system, and a site's first claim takes session 2.
const InitialSession proto.Session = 1

// WriteRec is one buffered write captured by a participant prepare record,
// sufficient to redo the install if the decision outlives the crash.
// Refresh writes (copier-style) carry the original writer's version; plain
// writes get their version from the commit sequence number at redo time.
type WriteRec struct {
	Item    proto.Item
	Value   proto.Value
	Refresh bool
	Version proto.Version // set when Refresh
}

// Record is one durable log entry.
type Record struct {
	Type      RecordType
	Role      Role
	Txn       proto.TxnID
	CommitSeq uint64       // set on RecordCommit; the counter on RecordSession
	Writes    []WriteRec   // prepare records: the participant's write set
	Origin    proto.SiteID // prepare records: the coordinator site
}

// Log is a site's append-only stable log. The zero value is not usable;
// create with New or Open.
type Log struct {
	mu  sync.Mutex
	lsn uint64 // records appended or loaded; every append forces
	// decisions and prepared are all Outcome, InDoubt and PreparedRecord
	// read: the last decision per transaction, and the participant prepare
	// record of each transaction still in doubt (its participant decision
	// drops it).
	decisions map[proto.TxnID]decision
	prepared  map[proto.TxnID]Record
	redo      []Record      // loaded redo records, until ScanRedo
	session   proto.Session // the highest session number handed out
	// sink, when set, receives every appended batch before the append
	// returns: Open's appends to the file, or whatever SetSink installed.
	sink  func([]Record)
	batch []Record // every sink batch, cleared after its force
	file  *os.File // what Open opened, for Close
}

// decision is a decided transaction in one word: its commit sequence number
// (a count of commits, far below 2^63) above a committed bit. An abort is 0.
type decision uint64

// New returns an empty log that keeps no records.
func New() *Log {
	return &Log{
		decisions: make(map[proto.TxnID]decision),
		prepared:  make(map[proto.TxnID]Record),
		session:   InitialSession,
	}
}

// SetSink installs a callback receiving every subsequently appended batch,
// synchronously and in append order (the callback runs inside the log
// force, so a record reported appended has already reached the sink). The
// sink is the only place the log's history is kept. The batch is a buffer
// the log reuses for the next force: the callback must not modify or keep
// it.
func (l *Log) SetSink(sink func([]Record)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// Close closes the file Open opened; a log from New has none. An append
// after it fails like any other write to the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	return l.file.Close()
}

// Append durably adds a record, costing one stable-storage sync.
func (l *Log) Append(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.index(&rec)
	l.force(rec)
}

// AppendGroup durably adds all records under a single sync, one sink batch
// instead of one per record; the records become visible (and the outcome
// indexes update) atomically with respect to concurrent readers. No site
// path calls it — each of a transaction's records is forced on its own, by
// Append or AppendRedo — but tests build logs with it, and the benchmark
// ledger times it directly (wal.append_group_ns).
func (l *Log) AppendGroup(recs []Record) {
	if len(recs) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range recs {
		l.index(&recs[i])
	}
	l.force(recs...)
}

// AppendRedo durably adds a physical redo record for the values txn
// installed, under a single sync, and returns the log sequence number the
// record landed at. Engines that buffer dirty pages must call it before
// mutating the pages (WAL-before-data) and may not flush a page whose
// pageLSN exceeds DurableLSN.
func (l *Log) AppendRedo(txn proto.TxnID, writes []WriteRec) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lsn++
	l.force(Record{Type: RecordRedo, Role: RoleParticipant, Txn: txn, Writes: writes})
	return l.lsn
}

// NextSession durably advances the §3.1 session counter and returns the new
// value: its session record reaches the sink before NextSession returns, so
// a session number is unique in the site's history even across a restart.
func (l *Log) NextSession() proto.Session {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{Type: RecordSession, CommitSeq: uint64(l.session) + 1}
	l.index(&rec)
	l.force(rec)
	return l.session
}

// Session reports the highest session number the log has handed out, or
// InitialSession if none.
func (l *Log) Session() proto.Session {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.session
}

// force is one stable-storage sync: it hands recs to the sink as one batch,
// built in the log's reused buffer.
func (l *Log) force(recs ...Record) {
	if l.sink != nil {
		l.batch = append(l.batch[:0], recs...)
		l.sink(l.batch)
		clear(l.batch)
	}
}

// DurableLSN reports the log sequence number through which records are
// stable. Every append path forces before returning, so the whole log is
// durable: the LSN is simply the record count. The disk engine checks it
// against each dirty page's pageLSN before flushing.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// ScanRedo hands over the redo records Open loaded, in append order, and
// forgets them: the disk engine's restart pass replays them against the
// heap file. Redo appended since lives only in the sink.
func (l *Log) ScanRedo() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.redo
	l.redo = nil
	return out
}

// index advances the LSN past rec and updates the indexes.
func (l *Log) index(rec *Record) {
	l.lsn++
	switch rec.Type {
	case RecordPrepare:
		if rec.Role == RoleParticipant {
			l.prepared[rec.Txn] = *rec
		}
	case RecordCommit, RecordAbort:
		var d decision // an abort
		if rec.Type == RecordCommit {
			d = decision(rec.CommitSeq<<1 | 1)
		}
		l.decisions[rec.Txn] = d
		// A coordinator's decision installs nothing here: the site's own
		// participant prepare stays in doubt until its participant
		// decision, so a crash between the two leaves recovery a redo.
		if rec.Role != RoleCoordinator {
			delete(l.prepared, rec.Txn)
		}
	case RecordSession:
		l.session = max(l.session, proto.Session(rec.CommitSeq))
	}
}

// Outcome reports the durable outcome of txn at this site: StateCommitted or
// StateAborted if decided, StatePrepared if this site voted yes and never
// learned the decision, StateUnknown otherwise. For commits it also returns
// the commit sequence number.
func (l *Log) Outcome(txn proto.TxnID) (proto.TxnState, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d, ok := l.decisions[txn]; ok {
		if d&1 == 1 {
			return proto.StateCommitted, uint64(d >> 1)
		}
		return proto.StateAborted, 0
	}
	if _, ok := l.prepared[txn]; ok {
		return proto.StatePrepared, 0
	}
	return proto.StateUnknown, 0
}

// Decisions reports how many transactions the log holds a decision for:
// the one index that still grows with commits.
func (l *Log) Decisions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.decisions)
}

// Committed lists, in ascending order, the transactions the log holds a
// commit decision for.
func (l *Log) Committed() []proto.TxnID {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []proto.TxnID
	for txn, d := range l.decisions {
		if d&1 == 1 {
			out = append(out, txn)
		}
	}
	slices.Sort(out)
	return out
}

// InDoubt lists transactions this site prepared as a participant but never
// logged a participant decision for. A recovering site resolves these before
// serving; Outcome may already know the decision, if the site coordinated.
func (l *Log) InDoubt() []proto.TxnID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]proto.TxnID, 0, len(l.prepared))
	for txn := range l.prepared {
		out = append(out, txn)
	}
	return out
}

// PreparedRecord returns the write set and coordinator site logged with
// the participant prepare record of txn, while txn is in doubt.
func (l *Log) PreparedRecord(txn proto.TxnID) ([]WriteRec, proto.SiteID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.prepared[txn]
	return slices.Clone(rec.Writes), rec.Origin
}
