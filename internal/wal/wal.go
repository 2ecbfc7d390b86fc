// Package wal is a per-site stable write-ahead log.
//
// The log durably remembers two-phase-commit state so a site can answer
// outcome queries (cooperative termination) and find its in-doubt
// transactions after a crash. For the force-at-commit in-memory engine that
// is its whole job: installed values need no redo. The disk engine
// (storage/disk) additionally appends physical redo records (AppendRedo) —
// item, value, version triples forced before the corresponding heap page is
// dirtied — and replays them at restart to rebuild committed state that
// never reached the heap file. Records survive Crash unconditionally; the
// log is the "stable storage" of the paper's model.
package wal

import (
	"encoding/json"
	"strconv"
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
)

// Role says which 2PC role wrote the record.
type Role int

// Roles.
const (
	RoleCoordinator Role = iota + 1
	RoleParticipant
)

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
	CommitSeq uint64       // set on RecordCommit
	Writes    []WriteRec   // prepare records: the participant's write set
	Origin    proto.SiteID // prepare records: the coordinator site
}

// AppendRecordJSON appends rec to dst exactly as json.Encoder.Encode writes
// it, trailing newline included, without reflection: one line per field.
func AppendRecordJSON(dst []byte, rec *Record) []byte {
	dst = strconv.AppendInt(append(dst, `{"Type":`...), int64(rec.Type), 10)
	dst = strconv.AppendInt(append(dst, `,"Role":`...), int64(rec.Role), 10)
	dst = strconv.AppendUint(append(dst, `,"Txn":`...), uint64(rec.Txn), 10)
	dst = strconv.AppendUint(append(dst, `,"CommitSeq":`...), rec.CommitSeq, 10)
	dst = append(dst, `,"Writes":`...)
	if rec.Writes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range rec.Writes {
			w := &rec.Writes[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(append(dst, `{"Item":`...), string(w.Item))
			dst = strconv.AppendInt(append(dst, `,"Value":`...), int64(w.Value), 10)
			dst = strconv.AppendBool(append(dst, `,"Refresh":`...), w.Refresh)
			dst = strconv.AppendUint(append(dst, `,"Version":{"Counter":`...), w.Version.Counter, 10)
			dst = strconv.AppendUint(append(dst, `,"Writer":`...), uint64(w.Version.Writer), 10)
			dst = append(dst, "}}"...)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"Origin":`...), int64(rec.Origin), 10)
	return append(dst, "}\n"...)
}

// appendJSONString quotes s. A byte outside printable ASCII, or one that
// encoding/json escapes, sends s through json.Marshal so escapes match it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Log is an append-only stable log. The zero value is not usable; create
// with New.
type Log struct {
	mu      sync.Mutex
	records []Record
	// outcome index: last decision per transaction
	state map[proto.TxnID]Record
	// prepared index: participant prepare records awaiting a decision
	prepared map[proto.TxnID]bool
	// syncs models the force-to-disk cost: one per Append, one per
	// AppendGroup regardless of how many records the group carries.
	syncs uint64
	// sink, when set, receives every appended batch before the append
	// returns — the hook cmd/srnode uses to spill records to a real on-disk
	// log so a SIGKILLed process can answer decision queries after restart.
	sink func([]Record)
}

// New returns an empty log.
func New() *Log {
	return &Log{
		state:    make(map[proto.TxnID]Record),
		prepared: make(map[proto.TxnID]bool),
	}
}

// SetSink installs a callback receiving every subsequently appended batch,
// synchronously and in append order (the callback runs inside the log
// force, so a record reported appended has already reached the sink). The
// batch is the log's own storage: the callback must not modify or keep it.
// Preloaded records are not replayed into it.
func (l *Log) SetSink(sink func([]Record)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// Preload replays records recovered from an external stable log (see
// SetSink) into the indexes, without charging syncs or re-notifying the
// sink. It must run before the log is in service.
func (l *Log) Preload(recs []Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		l.appendLocked(rec)
	}
}

// Append durably adds a record, costing one stable-storage sync.
func (l *Log) Append(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(rec)
	l.force(1)
}

// AppendGroup is the group-commit entry point: it durably adds all records
// under a single sync — the log force for a whole operation batch costs one
// disk write instead of one per record. The records become visible (and the
// outcome indexes update) atomically with respect to concurrent readers.
func (l *Log) AppendGroup(recs []Record) {
	if len(recs) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		l.appendLocked(rec)
	}
	l.force(len(recs))
}

// AppendRedo durably adds a physical redo record for the values txn
// installed, under a single sync, and returns the log sequence number the
// record landed at. Engines that buffer dirty pages must call it before
// mutating the pages (WAL-before-data) and may not flush a page whose
// pageLSN exceeds DurableLSN.
func (l *Log) AppendRedo(txn proto.TxnID, writes []WriteRec) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(Record{Type: RecordRedo, Role: RoleParticipant, Txn: txn, Writes: writes})
	l.force(1)
	return uint64(len(l.records))
}

// force hands the last n appended records to the sink as one batch, a view
// of the log itself rather than a copy, and charges one sync.
func (l *Log) force(n int) {
	if l.sink != nil {
		end := len(l.records)
		l.sink(l.records[end-n : end : end])
	}
	l.syncs++
}

// DurableLSN reports the log sequence number through which records are
// stable. Every append path forces before returning, so the whole log is
// durable: the LSN is simply the record count. The disk engine checks it
// against each dirty page's pageLSN before flushing.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.records))
}

// ScanRedo returns the physical redo records in append order: the disk
// engine's restart pass replays them against the heap file, skipping any
// whose version the on-disk page already carries.
func (l *Log) ScanRedo() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for _, rec := range l.records {
		if rec.Type == RecordRedo {
			out = append(out, rec)
		}
	}
	return out
}

func (l *Log) appendLocked(rec Record) {
	l.records = append(l.records, rec)
	switch rec.Type {
	case RecordPrepare:
		if rec.Role == RoleParticipant {
			l.prepared[rec.Txn] = true
		}
	case RecordCommit, RecordAbort:
		l.state[rec.Txn] = rec
		delete(l.prepared, rec.Txn)
	}
}

// Syncs reports how many stable-storage syncs the log has performed.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Outcome reports the durable outcome of txn at this site: StateCommitted or
// StateAborted if decided, StatePrepared if this site voted yes and never
// learned the decision, StateUnknown otherwise. For commits it also returns
// the commit sequence number.
func (l *Log) Outcome(txn proto.TxnID) (proto.TxnState, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec, ok := l.state[txn]; ok {
		if rec.Type == RecordCommit {
			return proto.StateCommitted, rec.CommitSeq
		}
		return proto.StateAborted, 0
	}
	if l.prepared[txn] {
		return proto.StatePrepared, 0
	}
	return proto.StateUnknown, 0
}

// InDoubt lists transactions this site prepared but never saw decided.
// A recovering site resolves these before serving.
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
// txn's participant prepare record.
func (l *Log) PreparedRecord(txn proto.TxnID) ([]WriteRec, proto.SiteID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.records) - 1; i >= 0; i-- {
		rec := l.records[i]
		if rec.Txn == txn && rec.Type == RecordPrepare && rec.Role == RoleParticipant {
			out := make([]WriteRec, len(rec.Writes))
			copy(out, rec.Writes)
			return out, rec.Origin
		}
	}
	return nil, 0
}

// Len reports the number of records (for tests and stats).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Scan returns a copy of the full log in append order.
func (l *Log) Scan() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}
