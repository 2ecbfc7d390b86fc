// Package proto defines the vocabulary shared by all sites of the simulated
// replicated distributed database: identifiers, transaction metadata, the
// messages exchanged over the network simulator, and the protocol error
// taxonomy.
//
// The network is in-process (see internal/netsim), so messages are plain Go
// values rather than serialized bytes; the set of types below is the wire
// contract all the same, and nothing outside this package crosses between
// sites.
package proto

import (
	"fmt"
	"strconv"
	"strings"
)

// SiteID names a site. Sites are numbered 1..n; 0 is "no site".
type SiteID int

// String implements fmt.Stringer.
func (s SiteID) String() string { return "site" + strconv.Itoa(int(s)) }

// TxnID is a cluster-unique transaction identifier drawn from a global
// sequencer. IDs are monotonically increasing, so they double as the
// timestamps used by wound-wait deadlock avoidance and as commit-order
// tiebreakers. (The sequencer stands in for synchronized or Lamport clocks;
// only uniqueness and monotonicity are relied upon.)
type TxnID uint64

// String implements fmt.Stringer.
func (t TxnID) String() string { return "t" + strconv.FormatUint(uint64(t), 10) }

// Item names a logical data item. Physical copies are identified by an
// (Item, SiteID) pair.
type Item string

// Value is the content of a data item. Using an integer keeps examples able
// to check semantic invariants (conservation of money and the like) on top
// of serializability certification.
type Value int64

// Session is a session number. Zero means "not operational": the paper
// reserves 0 for sites that are down or recovering.
type Session uint64

// NoSession is the session number of a site that is not operational.
const NoSession Session = 0

// nsPrefix prefixes the names of the nominal-session-number data items that
// augment the database (NS[k] in the paper).
const nsPrefix = "ns:"

// NSItem returns the logical data item holding the nominal session number of
// site k. NS items are fully replicated at all sites.
func NSItem(k SiteID) Item {
	if k >= 0 && int(k) < len(nsItems) {
		return nsItems[k]
	}
	return Item(nsPrefix + strconv.Itoa(int(k)))
}

// nsItems are the first sites' NS item names, built once: every transaction
// reads the whole vector, and every participant checks its coordinator's.
var nsItems = func() (names [64]Item) {
	for k := range names {
		names[k] = Item(nsPrefix + strconv.Itoa(k))
	}
	return names
}()

// IsNSItem reports whether item is a nominal session number, and for which
// site.
func IsNSItem(item Item) (SiteID, bool) {
	rest, ok := strings.CutPrefix(string(item), nsPrefix)
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return SiteID(k), true
}

// TxnClass distinguishes the kinds of transactions the paper's theory treats
// differently.
type TxnClass int

// Transaction classes. Initial and Final are the synthetic transactions that
// augment histories for the serializability theory of §4.
const (
	ClassUser TxnClass = iota + 1
	ClassCopier
	ClassControl1 // type-1 control transaction: claims a site nominally up
	ClassControl2 // type-2 control transaction: claims sites nominally down
	ClassInitial
	ClassFinal

	// ClassSlots sizes an array indexed by TxnClass: every class has a slot
	// (slot 0 is unused).
	ClassSlots = int(ClassFinal) + 1
)

// String implements fmt.Stringer.
func (c TxnClass) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassCopier:
		return "copier"
	case ClassControl1:
		return "control1"
	case ClassControl2:
		return "control2"
	case ClassInitial:
		return "initial"
	case ClassFinal:
		return "final"
	default:
		return "class(" + strconv.Itoa(int(c)) + ")"
	}
}

// ParseTxnClass maps a TxnClass's String() form back to the class.
func ParseTxnClass(s string) (TxnClass, bool) {
	for c := ClassUser; c <= ClassFinal; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// IsControl reports whether the class is a control transaction.
func (c TxnClass) IsControl() bool { return c == ClassControl1 || c == ClassControl2 }

// TxnMeta travels with every physical operation so data managers can lock,
// log, and record history on behalf of the issuing transaction.
type TxnMeta struct {
	ID     TxnID
	Class  TxnClass
	Origin SiteID // site whose TM coordinates the transaction
}

// CheckMode selects how a data manager validates an incoming physical
// operation.
type CheckMode int

// Check modes.
const (
	// CheckSession is the paper's user-transaction convention: the request
	// carries the session number the transaction believes the target has,
	// and the DM rejects the request unless it equals the actual session
	// number.
	CheckSession CheckMode = iota + 1
	// CheckNone skips the session check. Control transactions use it (they
	// must run at recovering sites whose session number is still 0), and so
	// do the non-paper baselines (naive-available, quorum) that have no
	// session machinery.
	CheckNone
)

// Version identifies a committed state of a physical copy. Versions are
// totally ordered by (Counter, Writer); the counter is the coordinator-
// assigned commit sequence number.
type Version struct {
	Counter uint64
	Writer  TxnID
}

// Less reports whether v precedes w in version order.
func (v Version) Less(w Version) bool {
	if v.Counter != w.Counter {
		return v.Counter < w.Counter
	}
	return v.Writer < w.Writer
}

// String implements fmt.Stringer.
func (v Version) String() string {
	return fmt.Sprintf("v%d/%s", v.Counter, v.Writer)
}

// TxnState is a two-phase-commit outcome as known by a site.
type TxnState int

// Transaction states reported by decision queries.
const (
	StateUnknown TxnState = iota + 1
	StatePrepared
	StateCommitted
	StateAborted
)

// String implements fmt.Stringer.
func (s TxnState) String() string {
	switch s {
	case StateUnknown:
		return "unknown"
	case StatePrepared:
		return "prepared"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}
