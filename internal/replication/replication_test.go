package replication

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

func sites(n int) []proto.SiteID {
	out := make([]proto.SiteID, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, proto.SiteID(i))
	}
	return out
}

func TestProfilesRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Profiles() {
		if p.Name == "" || p.Read == 0 || p.Write == 0 || p.CheckMode == 0 {
			t.Errorf("profile %+v incomplete", p)
		}
		if names[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		got, err := ProfileByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("ProfileByName(%q) = (%+v, %v)", p.Name, got, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("ProfileByName must reject unknown names")
	}
	// The paper's profile is the only one with the session convention.
	for _, p := range Profiles() {
		want := p.Name == "rowaa"
		if p.UsesSessionVector != want {
			t.Errorf("%s UsesSessionVector = %v", p.Name, p.UsesSessionVector)
		}
	}
}

func TestCatalogConstruction(t *testing.T) {
	cat, err := NewCatalog(sites(3), map[proto.Item][]proto.SiteID{
		"x": {1, 2},
		"y": {3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumSites() != 3 {
		t.Fatalf("NumSites = %d", cat.NumSites())
	}
	rs, err := cat.Replicas("x")
	if err != nil || len(rs) != 2 || rs[0] != 1 || rs[1] != 2 {
		t.Fatalf("Replicas(x) = (%v, %v)", rs, err)
	}
	if _, err := cat.Replicas("ghost"); err == nil {
		t.Fatal("Replicas must reject unknown items")
	}
	// NS items are auto-placed everywhere.
	rs, err = cat.Replicas(proto.NSItem(2))
	if err != nil || len(rs) != 3 {
		t.Fatalf("Replicas(ns:2) = (%v, %v)", rs, err)
	}
	if !cat.HasReplica("x", 1) || cat.HasReplica("x", 3) {
		t.Fatal("HasReplica wrong")
	}
	items := cat.Items()
	if len(items) != 2 || items[0] != "x" || items[1] != "y" {
		t.Fatalf("Items = %v (NS must be excluded)", items)
	}
	at1 := cat.ItemsAt(1)
	if len(at1) != 1 || at1[0] != "x" {
		t.Fatalf("ItemsAt(1) = %v", at1)
	}
	q, err := cat.Quorum("x")
	if err != nil || q != 2 {
		t.Fatalf("Quorum(x) = (%d, %v)", q, err)
	}
}

func TestCatalogValidation(t *testing.T) {
	tests := []struct {
		name      string
		sites     []proto.SiteID
		placement map[proto.Item][]proto.SiteID
	}{
		{"no sites", nil, map[proto.Item][]proto.SiteID{"x": {1}}},
		{"site zero", []proto.SiteID{0}, nil},
		{"duplicate site", []proto.SiteID{1, 1}, nil},
		{"empty replicas", sites(2), map[proto.Item][]proto.SiteID{"x": {}}},
		{"unknown replica", sites(2), map[proto.Item][]proto.SiteID{"x": {9}}},
		{"duplicate replica", sites(2), map[proto.Item][]proto.SiteID{"x": {1, 1}}},
		{"ns collision", sites(2), map[proto.Item][]proto.SiteID{proto.NSItem(1): {1}}},
	}
	for _, tt := range tests {
		if _, err := NewCatalog(tt.sites, tt.placement); err == nil {
			t.Errorf("%s: no error", tt.name)
		}
	}
}

func TestQuorumMajorityProperty(t *testing.T) {
	f := func(n uint8) bool {
		replicas := int(n%7) + 1
		cat, err := NewCatalog(sites(replicas), map[proto.Item][]proto.SiteID{
			"x": sites(replicas),
		})
		if err != nil {
			return false
		}
		q, err := cat.Quorum("x")
		if err != nil {
			return false
		}
		// Any two quorums intersect.
		return 2*q > replicas
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestView(t *testing.T) {
	v := View{Sessions: []SiteSession{{1, 5}, {2, 0}, {3, 7}}}
	if !v.Up(1) || v.Up(2) || !v.Up(3) || v.Up(9) {
		t.Fatal("Up wrong")
	}
	if v.Session(3) != 7 || v.Session(9) != 0 {
		t.Fatal("Session wrong")
	}
}

func TestCatalogSitesIsACopy(t *testing.T) {
	cat, err := NewCatalog(sites(2), map[proto.Item][]proto.SiteID{"x": {1}})
	if err != nil {
		t.Fatal(err)
	}
	s := cat.Sites()
	s[0] = 99
	if cat.Sites()[0] != 1 {
		t.Fatal("Sites leaked internal state")
	}
}

// TestCatalogInternsItsNames: Intern answers the catalog's own string for
// every item it places, NS items included, and nothing for a name it does
// not know.
func TestCatalogInternsItsNames(t *testing.T) {
	c, err := NewCatalog(sites(3), map[proto.Item][]proto.SiteID{"x": {1, 2}, "y": {3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range append(c.Items(), proto.NSItem(1), proto.NSItem(3)) {
		got, ok := c.Intern([]byte(want))
		if !ok || got != want {
			t.Errorf("Intern(%q) = %q, %v", want, got, ok)
		}
	}
	if got, ok := c.Intern([]byte("z")); ok {
		t.Errorf("Intern(%q) = %q, want nothing", "z", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.Intern([]byte("x")) }); n != 0 {
		t.Errorf("Intern allocates %v times", n)
	}
}

// TestCatalogMatchesAMapModel checks the catalog against the placement it
// was built from, kept in plain maps: a partial placement (degree 2 of 4),
// each item's replica set handed over out of order, the NS items the
// catalog adds, and names it does not know.
func TestCatalogMatchesAMapModel(t *testing.T) {
	const numSites = 4
	placement := workload.UniformPlacement(60, 2, numSites, 7)
	model := make(map[proto.Item][]proto.SiteID, len(placement)+numSites)
	for item, rs := range placement {
		model[item] = slices.Clone(rs)
		slices.Reverse(rs) // the catalog sorts what it is given
	}
	for _, s := range sites(numSites) {
		model[proto.NSItem(s)] = sites(numSites)
	}
	cat, err := NewCatalog(sites(numSites), placement)
	if err != nil {
		t.Fatal(err)
	}

	var user []proto.Item
	at := make(map[proto.SiteID][]proto.Item)
	for item, rs := range model {
		got, err := cat.Replicas(item)
		if err != nil || !slices.Equal(got, rs) {
			t.Errorf("Replicas(%q) = %v, %v; want %v", item, got, err, rs)
		}
		if q, err := cat.Quorum(item); err != nil || q != len(rs)/2+1 {
			t.Errorf("Quorum(%q) = %d, %v; want %d", item, q, err, len(rs)/2+1)
		}
		for s := proto.SiteID(1); s <= numSites+1; s++ {
			if got, want := cat.HasReplica(item, s), slices.Contains(rs, s); got != want {
				t.Errorf("HasReplica(%q, %v) = %v, want %v", item, s, got, want)
			}
		}
		got1, ok := cat.Intern([]byte(item))
		if !ok || got1 != item {
			t.Errorf("Intern(%q) = %q, %v", item, got1, ok)
		}
		if _, ns := proto.IsNSItem(item); ns {
			continue
		}
		user = append(user, item)
		for _, s := range rs {
			at[s] = append(at[s], item)
		}
	}
	sortItems := func(items []proto.Item) []proto.Item {
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		return items
	}
	if got, want := cat.Items(), sortItems(user); !slices.Equal(got, want) {
		t.Errorf("Items() = %v, want %v", got, want)
	}
	for s := proto.SiteID(1); s <= numSites+1; s++ {
		if got, want := cat.ItemsAt(s), sortItems(at[s]); !slices.Equal(got, want) {
			t.Errorf("ItemsAt(%v) = %v, want %v", s, got, want)
		}
	}

	for _, ghost := range []proto.Item{"ghost", "", "ns:9", workload.ItemName(0) + "x"} {
		if got, ok := cat.Intern([]byte(ghost)); ok {
			t.Errorf("Intern(%q) = %q, want nothing", ghost, got)
		}
		if rs, err := cat.Replicas(ghost); err == nil {
			t.Errorf("Replicas(%q) = %v, want an error", ghost, rs)
		}
		if q, err := cat.Quorum(ghost); err == nil {
			t.Errorf("Quorum(%q) = %d, want an error", ghost, q)
		}
		if cat.HasReplica(ghost, 1) {
			t.Errorf("HasReplica(%q, 1) = true", ghost)
		}
	}

	// Each distinct set is kept once: at most the 6 pairs of 4 sites and
	// the NS items' one set of all four, shared by every item that has it.
	if len(cat.sets) > 7 {
		t.Errorf("the catalog keeps %d replica sets for at most 7 distinct ones", len(cat.sets))
	}
	a, _ := cat.Replicas(proto.NSItem(1))
	b, _ := cat.Replicas(proto.NSItem(2))
	if &a[0] != &b[0] {
		t.Error("two NS items' replica sets are stored twice")
	}
}
