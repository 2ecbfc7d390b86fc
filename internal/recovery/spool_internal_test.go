package recovery

import (
	"slices"
	"testing"

	"siterecovery/internal/proto"
)

// TestReplayOrderIsInstallOrder: two writers may share a commit sequence
// number. The replay must still install them in proto.Version.Less order, or
// InstallDirect skips the lower one as older and the replay undercounts.
func TestReplayOrderIsInstallOrder(t *testing.T) {
	updates := []proto.SpooledUpdate{ // spooler-site order, tie out of order
		{Item: "a", CommitSeq: 5, Writer: 9},
		{Item: "a", CommitSeq: 5, Writer: 3},
		{Item: "a", CommitSeq: 4, Writer: 9},
	}
	for _, a := range updates {
		for _, b := range updates {
			va := proto.Version{Counter: a.CommitSeq, Writer: a.Writer}
			vb := proto.Version{Counter: b.CommitSeq, Writer: b.Writer}
			if got := replayOrder(a, b) < 0; got != va.Less(vb) {
				t.Errorf("replayOrder(%v, %v) < 0 = %v, Version.Less = %v", va, vb, got, !got)
			}
		}
	}
	slices.SortStableFunc(updates, replayOrder)
	for i := 1; i < len(updates); i++ {
		prev := proto.Version{Counter: updates[i-1].CommitSeq, Writer: updates[i-1].Writer}
		cur := proto.Version{Counter: updates[i].CommitSeq, Writer: updates[i].Writer}
		if !prev.Less(cur) {
			t.Fatalf("replay installs %v before %v: InstallDirect would skip the second", prev, cur)
		}
	}
}
