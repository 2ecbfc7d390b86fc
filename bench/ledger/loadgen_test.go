package main

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"siterecovery/internal/proto"
)

// digest hashes the first n transactions a generator with these parameters
// yields.
func digest(t *testing.T, seed int64, client int, readShare float64, n int) uint64 {
	t.Helper()
	g := newTxnGen(seed, client, readShare)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		b, err := json.Marshal(g.next())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return h.Sum64()
}

func TestClientKeyHalvesAreDisjointAndCoverEveryItem(t *testing.T) {
	owner := map[int]int{}
	for c := 0; c < numClients; c++ {
		for j := 0; j < keysPerClient; j++ {
			k := clientKey(c, j)
			if k < 0 || k >= numItems {
				t.Fatalf("clientKey(%d, %d) = %d, outside the %d items", c, j, k, numItems)
			}
			if prev, taken := owner[k]; taken {
				t.Fatalf("key %d belongs to clients %d and %d", k, prev, c)
			}
			owner[k] = c
		}
	}
	if len(owner) != numItems {
		t.Fatalf("%d keys owned, want %d", len(owner), numItems)
	}
}

func TestGeneratedTxnsStayInTheClientsHalf(t *testing.T) {
	for c := 0; c < numClients; c++ {
		mine := map[proto.Item]bool{}
		for j := 0; j < keysPerClient; j++ {
			mine[proto.Item(itemName(clientKey(c, j)))] = true
		}
		g := newTxnGen(7, c, 0.5)
		values := map[proto.Value]bool{}
		for i := 0; i < 2000; i++ {
			req := g.next()
			seen := map[proto.Item]bool{}
			for _, it := range req.Reads {
				seen[it] = true
			}
			for _, w := range req.Writes {
				seen[w.Item] = true
				if values[w.Value] {
					t.Fatalf("client %d wrote value %d twice", c, w.Value)
				}
				values[w.Value] = true
			}
			if len(seen) != opsPerTxn || len(req.Reads)+len(req.Writes) != opsPerTxn {
				t.Fatalf("txn %d of client %d touches %d distinct keys in %d ops, want %d", i, c, len(seen), len(req.Reads)+len(req.Writes), opsPerTxn)
			}
			for it := range seen {
				if !mine[it] {
					t.Fatalf("client %d touched %s, a key of the other half", c, it)
				}
			}
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for c := 0; c < numClients; c++ {
		if a, b := digest(t, 42, c, 0.5, 500), digest(t, 42, c, 0.5, 500); a != b {
			t.Errorf("client %d: seed 42 gave digests %x and %x", c, a, b)
		}
		if a, b := digest(t, 42, c, 0.5, 500), digest(t, 43, c, 0.5, 500); a == b {
			t.Errorf("client %d: seeds 42 and 43 gave the same digest", c)
		}
	}
	if digest(t, 42, 0, 0.5, 500) == digest(t, 42, 1, 0.5, 500) {
		t.Error("both clients of one seed draw the same stream")
	}
}

func TestReadShare(t *testing.T) {
	g := newTxnGen(1, 0, 0.9)
	var reads, readOnly int
	const n = 20000
	for i := 0; i < n; i++ {
		req := g.next()
		reads += len(req.Reads)
		if len(req.Writes) == 0 {
			readOnly++
		}
	}
	if share := float64(reads) / (n * opsPerTxn); share < 0.89 || share > 0.91 {
		t.Errorf("read share %.3f, want 0.9", share)
	}
	// 0.9^4 = 0.656: the "about two thirds never leave the coordinator".
	if share := float64(readOnly) / n; share < 0.63 || share > 0.68 {
		t.Errorf("read-only share %.3f, want about 0.656", share)
	}
}

func TestPreloadCoversTheHalfOnce(t *testing.T) {
	g := newTxnGen(1, 1, 0.5)
	seen := map[proto.Item]bool{}
	for from := 0; from < keysPerClient; from += 16 {
		for _, w := range g.preloadTxn(from, 16).Writes {
			if seen[w.Item] {
				t.Fatalf("%s preloaded twice", w.Item)
			}
			seen[w.Item] = true
		}
	}
	if len(seen) != keysPerClient {
		t.Fatalf("preload wrote %d keys, want %d", len(seen), keysPerClient)
	}
}

func TestSplitThree(t *testing.T) {
	for seconds := 3; seconds <= 60; seconds++ {
		a, b, c := splitThree(seconds)
		if a+b+c != seconds || b < 1 || b > a || b > c || c < 1 {
			t.Errorf("splitThree(%d) = %d, %d, %d", seconds, a, b, c)
		}
	}
}
