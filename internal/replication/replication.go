// Package replication defines how logical READ and WRITE operations are
// interpreted over physical copies: the paper's ROWAA-with-sessions scheme,
// the strict ROWA scheme it argues against (§2), the naive
// write-all-available scheme whose anomaly motivates the paper (§1), and a
// majority-quorum baseline.
//
// A Profile is pure data; the transaction manager in internal/txn executes
// the policies. The Catalog says where copies live ("the information
// regarding where the copies of data item X are located is available at
// least at the resident sites", §2 — we give it to every site).
package replication

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"siterecovery/internal/proto"
)

// ReadPolicy selects how a logical READ picks copies.
type ReadPolicy int

// Read policies.
const (
	// ReadOneUp reads one copy from a nominally-up replica site, local
	// copy preferred (the paper's ROWAA).
	ReadOneUp ReadPolicy = iota + 1
	// ReadOneAny reads one copy from any replica reachable at the moment,
	// with no consistent view (ROWA, and the naive scheme).
	ReadOneAny
	// ReadQuorum reads a majority of copies and takes the newest version.
	ReadQuorum
)

// WritePolicy selects how a logical WRITE spreads over copies.
type WritePolicy int

// Write policies.
const (
	// WriteAllUp writes every copy at nominally-up replica sites and
	// records the nominally-down ones as missed (the paper's ROWAA).
	WriteAllUp WritePolicy = iota + 1
	// WriteAll writes every copy and fails if any replica is unreachable
	// (strict ROWA).
	WriteAll
	// WriteAvailable writes whichever copies happen to be reachable,
	// succeeding if at least one is (the naive scheme of the §1 example).
	WriteAvailable
	// WriteQuorum writes reachable copies and requires a majority.
	WriteQuorum
)

// Profile describes a replica-control strategy.
type Profile struct {
	Name string
	// UsesSessionVector: the transaction implicitly reads the local copy
	// of the nominal session vector before any other operation (§3.2).
	UsesSessionVector bool
	// CheckMode is carried on physical operations: CheckSession for the
	// paper's convention, CheckNone for strategies without sessions.
	CheckMode proto.CheckMode
	Read      ReadPolicy
	Write     WritePolicy
}

// Predefined strategy profiles.
var (
	// ROWAA is the paper's read-one/write-all-available scheme with
	// nominal session numbers.
	ROWAA = Profile{
		Name:              "rowaa",
		UsesSessionVector: true,
		CheckMode:         proto.CheckSession,
		Read:              ReadOneUp,
		Write:             WriteAllUp,
	}
	// ROWA is strict read-one/write-all: perfectly consistent, writes
	// unavailable whenever any replica site is down (§2).
	ROWA = Profile{
		Name:      "rowa",
		CheckMode: proto.CheckNone,
		Read:      ReadOneAny,
		Write:     WriteAll,
	}
	// Naive is write-all-available without a consistent view or session
	// checks; it commits the unrecoverable histories of the §1 example.
	Naive = Profile{
		Name:      "naive",
		CheckMode: proto.CheckNone,
		Read:      ReadOneAny,
		Write:     WriteAvailable,
	}
	// Quorum is a majority read/write baseline with version voting.
	Quorum = Profile{
		Name:      "quorum",
		CheckMode: proto.CheckNone,
		Read:      ReadQuorum,
		Write:     WriteQuorum,
	}
)

// Profiles lists the predefined profiles.
func Profiles() []Profile { return []Profile{ROWAA, ROWA, Naive, Quorum} }

// ProfileByName resolves a profile by its name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown replication profile %q", name)
}

// Catalog maps logical items to the sites holding their copies. It numbers
// every item, NS items included, in name order once (proto.Numbering), and
// keeps each distinct replica set once, indexed by item number. It is
// immutable after construction.
type Catalog struct {
	sites []proto.SiteID
	items *proto.Numbering
	set   []int32          // by item number: its replica set's index in sets
	sets  [][]proto.SiteID // each distinct replica set once, ascending
}

// NewCatalog builds a catalog for the given sites and item placement. The
// nominal session numbers NS[k] are added automatically, fully replicated
// at all sites (§3.1). Placement entries must reference known sites.
func NewCatalog(sites []proto.SiteID, placement map[proto.Item][]proto.SiteID) (*Catalog, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("catalog needs at least one site")
	}
	known := make(map[proto.SiteID]bool, len(sites))
	ordered := append([]proto.SiteID(nil), sites...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, s := range ordered {
		if s == 0 {
			return nil, fmt.Errorf("site id 0 is reserved")
		}
		if known[s] {
			return nil, fmt.Errorf("duplicate site %v", s)
		}
		known[s] = true
	}

	all := make([]proto.Item, 0, len(placement)+len(ordered))
	for item := range placement {
		if _, isNS := proto.IsNSItem(item); isNS {
			return nil, fmt.Errorf("item %q collides with the NS namespace", item)
		}
		all = append(all, item)
	}
	for _, s := range ordered {
		all = append(all, proto.NSItem(s))
	}

	c := &Catalog{sites: ordered, items: proto.NewNumbering(all)}
	c.set = make([]int32, c.items.Len())
	distinct := make(map[string]int32) // a set's index in sets, by its key
	var rs []proto.SiteID
	var key []byte
	for k := range c.set {
		item := c.items.Item(k)
		replicas, ok := placement[item]
		if !ok {
			replicas = ordered // an NS item
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("item %q has no replicas", item)
		}
		rs = append(rs[:0], replicas...)
		slices.Sort(rs)
		// A set's key is its sites in ascending order; looking it up by
		// string(key) makes no string.
		key = key[:0]
		for i, r := range rs {
			if !known[r] {
				return nil, fmt.Errorf("item %q placed at unknown site %v", item, r)
			}
			if i > 0 && rs[i-1] == r {
				return nil, fmt.Errorf("item %q has duplicate replica at %v", item, r)
			}
			key = binary.AppendUvarint(key, uint64(r))
		}
		i, seen := distinct[string(key)]
		if !seen {
			i = int32(len(c.sets))
			distinct[string(key)] = i
			c.sets = append(c.sets, slices.Clone(rs))
		}
		c.set[k] = i
	}
	return c, nil
}

// Intern implements proto.Interner: the catalog's own string for the item
// named name, NS items included, so that a decoder or a parser that meets a
// known name makes no string of its own.
func (c *Catalog) Intern(name []byte) (proto.Item, bool) { return c.items.Intern(name) }

// Numbering returns the catalog's numbering of every item, NS items
// included: what a site's storage keeps its copies by.
func (c *Catalog) Numbering() *proto.Numbering { return c.items }

// Sites returns all sites in ascending order.
func (c *Catalog) Sites() []proto.SiteID {
	return append([]proto.SiteID(nil), c.sites...)
}

// NumSites reports the cluster size.
func (c *Catalog) NumSites() int { return len(c.sites) }

// replicas returns the replica set of item, or nil if the catalog lacks it.
func (c *Catalog) replicas(item proto.Item) []proto.SiteID {
	k, ok := c.items.Number(item)
	if !ok {
		return nil
	}
	return c.sets[c.set[k]]
}

// Replicas returns the resident sites of item in ascending order. The slice
// is the catalog's own, shared by every caller: read it, never modify it.
func (c *Catalog) Replicas(item proto.Item) ([]proto.SiteID, error) {
	rs := c.replicas(item)
	if rs == nil {
		return nil, fmt.Errorf("item %q not in catalog", item)
	}
	return rs, nil
}

// HasReplica reports whether site stores a copy of item.
func (c *Catalog) HasReplica(item proto.Item, site proto.SiteID) bool {
	return slices.Contains(c.replicas(item), site)
}

// ItemsAt lists the user items (NS excluded) with a copy at site, sorted.
func (c *Catalog) ItemsAt(site proto.SiteID) []proto.Item {
	var items []proto.Item
	for k, i := range c.set {
		if item := c.items.Item(k); slices.Contains(c.sets[i], site) && !isNS(item) {
			items = append(items, item)
		}
	}
	return items
}

// Items lists all user items (NS excluded), sorted.
func (c *Catalog) Items() []proto.Item {
	items := make([]proto.Item, 0, c.items.Len()-len(c.sites))
	for k := range c.set {
		if item := c.items.Item(k); !isNS(item) {
			items = append(items, item)
		}
	}
	return items
}

func isNS(item proto.Item) bool {
	_, ns := proto.IsNSItem(item)
	return ns
}

// Quorum returns the majority size for item's replica set.
func (c *Catalog) Quorum(item proto.Item) (int, error) {
	rs, err := c.Replicas(item)
	if err != nil {
		return 0, err
	}
	return len(rs)/2 + 1, nil
}

// View is a transaction's consistent view of the system configuration: the
// nominal session vector it read at start (§3.2), one entry per site in
// ascending site order.
type View struct {
	Sessions []SiteSession
}

// SiteSession is one site's entry in a View.
type SiteSession struct {
	Site    proto.SiteID
	Session proto.Session
}

// Up reports whether site is nominally up in the view.
func (v View) Up(site proto.SiteID) bool { return v.Session(site) != proto.NoSession }

// Session returns the nominal session number of site in the view; a site
// the view does not list is down.
func (v View) Session(site proto.SiteID) proto.Session {
	for _, e := range v.Sessions {
		if e.Site == site {
			return e.Session
		}
	}
	return proto.NoSession
}
