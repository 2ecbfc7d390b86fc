package proto

// Message is implemented by every request and response that crosses the
// simulated network. Kind returns a stable short name used for per-type
// message accounting.
type Message interface {
	Kind() string
}

// ReadReq asks a data manager for the committed value of its local copy of
// Item. The DM acquires a shared lock on behalf of Txn before answering.
type ReadReq struct {
	Txn     TxnMeta
	Item    Item
	Mode    CheckMode
	Expect  Session // session number the sender believes the target has
	Copier  bool    // read on behalf of a copier refresh
	ReadOld bool    // quorum baseline: read even an unreadable copy
	// NoRecord suppresses history recording for this physical read. The
	// quorum baseline probes several copies but logically reads only the
	// newest; it records that one read itself.
	NoRecord bool
}

// ReadResp carries the committed value of a copy.
type ReadResp struct {
	Value   Value
	Version Version
}

// WriteReq asks a data manager to exclusively lock its copy of Item and
// buffer Value as the pending write of Txn. The value is installed only when
// the transaction commits.
type WriteReq struct {
	Txn    TxnMeta
	Item   Item
	Value  Value
	Mode   CheckMode
	Expect Session
	// MissedBy lists replica sites that did not receive this write because
	// the issuing transaction considered them unavailable; used for
	// fail-lock / missing-list bookkeeping at commit time.
	MissedBy []SiteID
}

// WriteResp acknowledges a buffered write.
type WriteResp struct{}

// BatchOp is one deferred write inside a BatchReq.
type BatchOp struct {
	Item  Item
	Value Value
	// MissedBy lists replica sites this write skipped because the issuing
	// transaction considered them unavailable (per-op, like
	// WriteReq.MissedBy).
	MissedBy []SiteID `json:",omitempty"`
}

// BatchReq carries every operation a transaction's deferred write set holds
// for one participant site in a single wire message: the ROWAA fan-out of
// W×R per-item WriteReqs collapses to one frame per site. The receiving
// data manager executes the batch atomically — one session-gate check, one
// lock-manager pass, one group-commit log append — and, with Prepare set,
// votes in the response, so the flush round doubles as phase one of
// two-phase commit (W×R + 2R messages become R + R).
type BatchReq struct {
	Txn    TxnMeta
	Mode   CheckMode
	Expect Session // session number the sender believes the target has
	Ops    []BatchOp
	// Prepare piggybacks the 2PC prepare on the flush: the site logs the
	// batch as its prepare record and votes in the BatchResp.
	Prepare bool
}

// BatchResp acknowledges an executed batch. With BatchReq.Prepare set, Vote
// and MaxSeq mirror PrepareResp: the participant's yes/no vote and its
// high-water commit sequence number.
type BatchResp struct {
	Vote   bool
	MaxSeq uint64
}

// PrepareReq is phase one of two-phase commit.
type PrepareReq struct {
	Txn TxnMeta
}

// PrepareResp carries the participant's vote. MaxSeq is the largest commit
// sequence number the participant has generated or observed: the coordinator
// folds it into its own sequencer before picking the commit sequence number,
// so version counters stay ordered by commit order even when each site draws
// from an independent strided sequencer (srnode).
type PrepareResp struct {
	Vote   bool
	MaxSeq uint64
}

// CommitReq is phase two of two-phase commit: install pending writes with
// the coordinator-assigned commit sequence number, then release locks.
type CommitReq struct {
	Txn       TxnMeta
	CommitSeq uint64
}

// CommitResp acknowledges a commit.
type CommitResp struct{}

// AbortReq discards pending writes and releases locks. With ReadOnlyEnd
// set it is the release message for a committed read-only transaction: no
// abort record is logged.
type AbortReq struct {
	Txn         TxnMeta
	ReadOnlyEnd bool
}

// AbortResp acknowledges an abort.
type AbortResp struct{}

// DecisionReq asks a site for the outcome of a transaction (cooperative
// termination). Sites answer from their commit/abort logs even while
// recovering.
type DecisionReq struct {
	Txn TxnID
}

// DecisionResp reports the asked site's knowledge of the outcome.
type DecisionResp struct {
	State     TxnState
	CommitSeq uint64
}

// ProbeReq asks whether the target is alive, and in which state. The
// failure detector and the naive-available baseline use it.
type ProbeReq struct{}

// ProbeResp reports liveness.
type ProbeResp struct {
	Operational bool
	Session     Session
}

// MissedFetchReq asks an operational site for the set of items the asking
// (recovering) site missed updates on, according to the target's fail-locks
// or missing list. The target atomically clears its entries for the asking
// site. It also returns the entries it holds about other still-down sites so
// the recovering site can rebuild its own missing list (§5).
type MissedFetchReq struct {
	For SiteID
}

// MissedFetchResp carries the missed-update bookkeeping.
type MissedFetchResp struct {
	// Items the asking site missed updates on.
	Missed []Item
	// Entries about other sites: Others[j] lists items site j has missed,
	// as known by the answering site. Only populated by the missing-list
	// strategy.
	Others map[SiteID][]Item
}

// SpoolFetchReq drains the spooled updates held for the asking site.
type SpoolFetchReq struct {
	For SiteID
}

// SpoolFetchResp returns spooled updates in commit order.
type SpoolFetchResp struct {
	Updates []SpooledUpdate
}

// SpooledUpdate is one missed write held by a spooler.
type SpooledUpdate struct {
	Item      Item
	Value     Value
	CommitSeq uint64
	Writer    TxnID
}

// Kind implementations.

// Kind implements Message.
func (ReadReq) Kind() string { return "read" }

// Kind implements Message.
func (ReadResp) Kind() string { return "read.resp" }

// Kind implements Message.
func (WriteReq) Kind() string { return "write" }

// Kind implements Message.
func (WriteResp) Kind() string { return "write.resp" }

// Kind implements Message.
func (BatchReq) Kind() string { return "batch" }

// Kind implements Message.
func (BatchResp) Kind() string { return "batch.resp" }

// Kind implements Message.
func (PrepareReq) Kind() string { return "prepare" }

// Kind implements Message.
func (PrepareResp) Kind() string { return "prepare.resp" }

// Kind implements Message.
func (CommitReq) Kind() string { return "commit" }

// Kind implements Message.
func (CommitResp) Kind() string { return "commit.resp" }

// Kind implements Message.
func (AbortReq) Kind() string { return "abort" }

// Kind implements Message.
func (AbortResp) Kind() string { return "abort.resp" }

// Kind implements Message.
func (DecisionReq) Kind() string { return "decision" }

// Kind implements Message.
func (DecisionResp) Kind() string { return "decision.resp" }

// Kind implements Message.
func (ProbeReq) Kind() string { return "probe" }

// Kind implements Message.
func (ProbeResp) Kind() string { return "probe.resp" }

// Kind implements Message.
func (MissedFetchReq) Kind() string { return "missed.fetch" }

// Kind implements Message.
func (MissedFetchResp) Kind() string { return "missed.fetch.resp" }

// Kind implements Message.
func (SpoolFetchReq) Kind() string { return "spool.fetch" }

// Kind implements Message.
func (SpoolFetchResp) Kind() string { return "spool.fetch.resp" }
