package storage_test

import (
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/enginetest"
)

// TestMemConformance runs the shared engine battery against the in-memory
// engine (which is also the battery's oracle — the randomized subtest then
// degenerates to a self-check, but the table-driven ones still bite).
func TestMemConformance(t *testing.T) {
	enginetest.Run(t, func(_ *testing.T, site proto.SiteID, items []proto.Item, initialWriter proto.TxnID) storage.Engine {
		return storage.NewMem(site, items, initialWriter)
	})
}
