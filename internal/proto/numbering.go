package proto

import (
	"hash/maphash"
	"slices"
)

// Numbering numbers a set of items 0, 1, ..., Len()-1 in name order. A
// site's catalog numbers every item of the cluster once, NS items included,
// and the site's storage keeps its copies in slices over those numbers. It
// is immutable, so every site of one process can share one.
//
// The name index is open addressing over a power-of-two array of numbers,
// at most half full: 8 to 16 B per item where a Go map from string to int
// costs about 53.
type Numbering struct {
	items []Item  // by number: sorted, distinct
	index []int32 // number+1 of the item whose probe sequence ends here; 0 is empty
}

// numberSeed seeds every Numbering's hash: a lookup's answer never depends
// on it, only how far it probes.
var numberSeed = maphash.MakeSeed()

// NewNumbering numbers the distinct items of items in name order.
func NewNumbering(items []Item) *Numbering {
	sorted := slices.Clone(items)
	slices.Sort(sorted)
	sorted = slices.Clip(slices.Compact(sorted))
	size := 2
	for size < 2*len(sorted) {
		size *= 2
	}
	n := &Numbering{items: sorted, index: make([]int32, size)}
	for k, item := range sorted {
		i := n.home(maphash.String(numberSeed, string(item)))
		for n.index[i] != 0 {
			i = n.next(i)
		}
		n.index[i] = int32(k + 1)
	}
	return n
}

func (n *Numbering) home(hash uint64) int { return int(hash & uint64(len(n.index)-1)) }
func (n *Numbering) next(i int) int       { return (i + 1) & (len(n.index) - 1) }

// Len reports how many items are numbered.
func (n *Numbering) Len() int { return len(n.items) }

// Item returns the item numbered k, 0 <= k < Len().
func (n *Numbering) Item(k int) Item { return n.items[k] }

// Number returns item's number, and whether it has one.
func (n *Numbering) Number(item Item) (int, bool) {
	for i := n.home(maphash.String(numberSeed, string(item))); ; i = n.next(i) {
		k := int(n.index[i]) - 1
		if k < 0 || n.items[k] == item {
			return k, k >= 0
		}
	}
}

// Intern implements Interner: the numbered item named name, whose string is
// the numbering's own.
func (n *Numbering) Intern(name []byte) (Item, bool) {
	for i := n.home(maphash.Bytes(numberSeed, name)); ; i = n.next(i) {
		k := int(n.index[i]) - 1
		if k < 0 {
			return "", false
		}
		if string(n.items[k]) == string(name) {
			return n.items[k], true
		}
	}
}
