package replication

import (
	"testing"
	"testing/quick"

	"siterecovery/internal/proto"
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
