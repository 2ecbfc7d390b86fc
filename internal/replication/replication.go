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
	"fmt"
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

// Catalog maps logical items to the sites holding their copies. It is
// immutable after construction.
type Catalog struct {
	sites     []proto.SiteID
	placement map[proto.Item][]proto.SiteID
	names     map[string]proto.Item // every item, NS included, by name (Intern)
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

	p := make(map[proto.Item][]proto.SiteID, len(placement)+len(ordered))
	for item, replicas := range placement {
		if _, isNS := proto.IsNSItem(item); isNS {
			return nil, fmt.Errorf("item %q collides with the NS namespace", item)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("item %q has no replicas", item)
		}
		rs := append([]proto.SiteID(nil), replicas...)
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		for i, r := range rs {
			if !known[r] {
				return nil, fmt.Errorf("item %q placed at unknown site %v", item, r)
			}
			if i > 0 && rs[i-1] == r {
				return nil, fmt.Errorf("item %q has duplicate replica at %v", item, r)
			}
		}
		p[item] = rs
	}
	for _, s := range ordered {
		p[proto.NSItem(s)] = append([]proto.SiteID(nil), ordered...)
	}
	names := make(map[string]proto.Item, len(p))
	for item := range p {
		names[string(item)] = item
	}
	return &Catalog{sites: ordered, placement: p, names: names}, nil
}

// Intern implements proto.Interner: the catalog's own string for the item
// named name, NS items included, so that a decoder or a parser that meets a
// known name makes no string of its own.
func (c *Catalog) Intern(name []byte) (proto.Item, bool) {
	item, ok := c.names[string(name)]
	return item, ok
}

// Sites returns all sites in ascending order.
func (c *Catalog) Sites() []proto.SiteID {
	return append([]proto.SiteID(nil), c.sites...)
}

// NumSites reports the cluster size.
func (c *Catalog) NumSites() int { return len(c.sites) }

// Replicas returns the resident sites of item in ascending order. The slice
// is the catalog's own, shared by every caller: read it, never modify it.
func (c *Catalog) Replicas(item proto.Item) ([]proto.SiteID, error) {
	rs, ok := c.placement[item]
	if !ok {
		return nil, fmt.Errorf("item %q not in catalog", item)
	}
	return rs, nil
}

// HasReplica reports whether site stores a copy of item.
func (c *Catalog) HasReplica(item proto.Item, site proto.SiteID) bool {
	for _, r := range c.placement[item] {
		if r == site {
			return true
		}
	}
	return false
}

// ItemsAt lists the user items (NS excluded) with a copy at site, sorted.
func (c *Catalog) ItemsAt(site proto.SiteID) []proto.Item {
	var items []proto.Item
	for item, replicas := range c.placement {
		if _, isNS := proto.IsNSItem(item); isNS {
			continue
		}
		for _, r := range replicas {
			if r == site {
				items = append(items, item)
				break
			}
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// Items lists all user items (NS excluded), sorted.
func (c *Catalog) Items() []proto.Item {
	var items []proto.Item
	for item := range c.placement {
		if _, isNS := proto.IsNSItem(item); isNS {
			continue
		}
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// Quorum returns the majority size for item's replica set.
func (c *Catalog) Quorum(item proto.Item) (int, error) {
	rs, ok := c.placement[item]
	if !ok {
		return 0, fmt.Errorf("item %q not in catalog", item)
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
