// Package spooler implements the "first approach" to site recovery the
// paper contrasts against (§1): multiple message spoolers in the style of
// SDD-1 [Hammer & Shipman 1980]. Every update that misses a down site is
// saved at the sites that did apply it (the spoolers — replicating the
// spool is what makes it reliable); the recovering site drains and replays
// all missed updates before resuming normal operations.
//
// The experiments use it as the baseline whose recovery latency grows with
// the number of missed updates, against the paper's claim that its own
// protocol makes a site operational almost immediately.
package spooler

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"siterecovery/internal/proto"
)

// Store holds the spooled updates kept at one site on behalf of down
// sites. The spool is volatile — its reliability comes from every up
// replica spooling the same update, exactly as the multiple-spooler scheme
// prescribes.
type Store struct {
	mu     sync.Mutex
	bySite map[proto.SiteID][]proto.SpooledUpdate
}

// New returns an empty spool store.
func New() *Store {
	return &Store{bySite: make(map[proto.SiteID][]proto.SpooledUpdate)}
}

// Append saves an update that missed site.
func (s *Store) Append(site proto.SiteID, u proto.SpooledUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bySite[site] = append(s.bySite[site], u)
}

// Drain removes and returns the updates held for site, in commit order.
func (s *Store) Drain(site proto.SiteID) []proto.SpooledUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	updates := s.bySite[site]
	delete(s.bySite, site)
	sort.Slice(updates, func(i, j int) bool {
		return updates[i].CommitSeq < updates[j].CommitSeq
	})
	return updates
}

// Pending reports how many updates are spooled for site.
func (s *Store) Pending(site proto.SiteID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bySite[site])
}

// Crash wipes the spool (it is volatile; other spoolers hold the copies).
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bySite = make(map[proto.SiteID][]proto.SpooledUpdate)
}

// Handle serves the spool wire protocol: a recovering site's fetch. Updates
// arrive through Append, from the local data manager at commit.
func (s *Store) Handle(_ context.Context, _ proto.SiteID, msg proto.Message) (proto.Message, error) {
	req, ok := msg.(proto.SpoolFetchReq)
	if !ok {
		return nil, fmt.Errorf("spooler: unhandled message %T", msg)
	}
	return proto.SpoolFetchResp{Updates: s.Drain(req.For)}, nil
}
