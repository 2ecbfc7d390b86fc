package workload

import (
	"testing"

	"siterecovery/internal/proto"
)

func TestUniformPlacement(t *testing.T) {
	placement := UniformPlacement(20, 3, 5, 42)
	if len(placement) != 20 {
		t.Fatalf("placement has %d items", len(placement))
	}
	counts := make(map[proto.SiteID]int)
	for item, replicas := range placement {
		if len(replicas) != 3 {
			t.Fatalf("%s has %d replicas", item, len(replicas))
		}
		seen := make(map[proto.SiteID]bool)
		for _, r := range replicas {
			if r < 1 || r > 5 {
				t.Fatalf("%s replica at invalid site %v", item, r)
			}
			if seen[r] {
				t.Fatalf("%s has duplicate replica %v", item, r)
			}
			seen[r] = true
			counts[r]++
		}
	}
	// Deterministic given the seed.
	again := UniformPlacement(20, 3, 5, 42)
	for item, replicas := range placement {
		other := again[item]
		for i := range replicas {
			if other[i] != replicas[i] {
				t.Fatalf("placement not deterministic for %s", item)
			}
		}
	}
	// Every site holds something.
	for s := proto.SiteID(1); s <= 5; s++ {
		if counts[s] == 0 {
			t.Errorf("site %v holds no replicas", s)
		}
	}
}

func TestUniformPlacementDegreeClamped(t *testing.T) {
	placement := UniformPlacement(3, 9, 2, 1)
	for item, replicas := range placement {
		if len(replicas) != 2 {
			t.Fatalf("%s has %d replicas, want clamped 2", item, len(replicas))
		}
	}
}

func TestFullPlacement(t *testing.T) {
	placement := FullPlacement(4, 3)
	for item, replicas := range placement {
		if len(replicas) != 3 {
			t.Fatalf("%s not fully replicated: %v", item, replicas)
		}
	}
}

func TestGeneratorDistributions(t *testing.T) {
	items := make([]proto.Item, 50)
	for i := range items {
		items[i] = ItemName(i)
	}
	for _, dist := range []Dist{Uniform, Zipf, Hotspot} {
		gen, err := NewGenerator(GeneratorConfig{Items: items, Dist: dist, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[proto.Item]int)
		for range 200 {
			spec := gen.Next()
			total := len(spec.Reads) + len(spec.Writes)
			if total != 4 {
				t.Fatalf("dist %d: ops per txn = %d, want 4", dist, total)
			}
			seen := make(map[proto.Item]bool)
			for _, item := range append(append([]proto.Item{}, spec.Reads...), spec.Writes...) {
				if seen[item] {
					t.Fatalf("dist %d: duplicate item %s in one txn", dist, item)
				}
				seen[item] = true
				counts[item]++
			}
		}
		if len(counts) < 2 {
			t.Fatalf("dist %d: degenerate access distribution", dist)
		}
	}
}

func TestZipfAndHotspotSkew(t *testing.T) {
	items := make([]proto.Item, 100)
	for i := range items {
		items[i] = ItemName(i)
	}
	for _, dist := range []Dist{Zipf, Hotspot} {
		gen, err := NewGenerator(GeneratorConfig{Items: items, Dist: dist, Seed: 11, OpsPerTxn: 1})
		if err != nil {
			t.Fatal(err)
		}
		hot := 0
		const n = 2000
		for range n {
			spec := gen.Next()
			var item proto.Item
			if len(spec.Reads) > 0 {
				item = spec.Reads[0]
			} else {
				item = spec.Writes[0]
			}
			for i := range 20 { // first 20% of 100 items
				if item == ItemName(i) {
					hot++
					break
				}
			}
		}
		if frac := float64(hot) / n; frac < 0.5 {
			t.Errorf("dist %d: hot fraction %.2f, want skewed > 0.5", dist, frac)
		}
	}
}
