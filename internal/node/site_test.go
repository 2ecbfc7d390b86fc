package node_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/netsim"
	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/txn"
)

var xyEverywhere = map[proto.Item][]proto.SiteID{"x": {1, 2, 3}, "y": {1, 2, 3}}

// writeUntilExcluded retries a write of item=v at s until it commits: the
// first attempts discover the crashed replica, and the write goes through
// once the detector's type-2 claim has excluded it.
func writeUntilExcluded(t *testing.T, s *node.Site, item proto.Item, v proto.Value) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := s.Exec(context.Background(), func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, item, v)
		})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write %s=%d never succeeded after the crash: %v", item, v, err)
		}
	}
}

// TestOneSiteTwoTransports runs one script — commit, crash site 2, write
// until the type-2 exclusion lands, recover, wait current — against the same
// Site stack over the simulator (as core assembles it) and over real TCP (as
// Node assembles it). Both must converge and both must tell the same story
// about site 2 in their event streams.
func TestOneSiteTwoTransports(t *testing.T) {
	type cluster struct {
		site    func(proto.SiteID) *node.Site
		crash   func(proto.SiteID)
		recover func(context.Context, proto.SiteID) (recovery.Report, error)
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T, *obs.Hub) cluster
	}{
		{"netsim", func(t *testing.T, hub *obs.Hub) cluster {
			c, err := core.New(core.Config{
				Sites:            3,
				Placement:        xyEverywhere,
				DetectorDebounce: 20 * time.Millisecond,
				Obs:              hub,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			t.Cleanup(c.Stop)
			return cluster{c.Site, c.Crash, c.Recover}
		}},
		{"tcpnet", func(t *testing.T, hub *obs.Hub) cluster {
			nodes := newTrio(t, hub)
			site := func(id proto.SiteID) *node.Site { return nodes[id].Site }
			return cluster{
				site:    site,
				crash:   func(id proto.SiteID) { site(id).Crash() },
				recover: func(ctx context.Context, id proto.SiteID) (recovery.Report, error) { return site(id).Recover(ctx) },
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := obs.NewHub(obs.Options{})
			c := tc.build(t, hub)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			nodeWrite(t, c.site(1), "x", 41)
			if got := nodeRead(t, c.site(2), "x"); got != 41 {
				t.Fatalf("x at site 2 = %d, want 41", got)
			}

			c.crash(2)
			writeUntilExcluded(t, c.site(1), "x", 100)
			nodeWrite(t, c.site(1), "y", 7)

			report, err := c.recover(ctx, 2)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if report.Session <= node.InitialSession {
				t.Fatalf("new session = %d, want > %d", report.Session, node.InitialSession)
			}
			if err := c.site(2).WaitCurrent(ctx); err != nil {
				t.Fatalf("WaitCurrent: %v", err)
			}
			// The stores are read directly below, not through a transaction,
			// so wait out any decision still on its way to a participant.
			waitDecided(t, 5*time.Second, c.site(1), c.site(2), c.site(3))
			for item, want := range map[proto.Item]proto.Value{"x": 100, "y": 7} {
				for id := proto.SiteID(1); id <= 3; id++ {
					if v, _, err := c.site(id).Store.Committed(item); err != nil || v != want {
						t.Errorf("%s at site %v = (%d, %v), want %d", item, id, v, err, want)
					}
				}
				if got := nodeRead(t, c.site(2), item); got != want {
					t.Errorf("%s read at recovered site = %d, want %d", item, got, want)
				}
			}

			// Site 2's story, in order. Only site 1 coordinates, so only it
			// observes the crash and claims the exclusion.
			var story []string
			for _, e := range hub.Tracer().Events() {
				switch e.Type {
				case obs.EvControl2:
				case obs.EvSiteCrash, obs.EvRecoveryStart, obs.EvControl1, obs.EvRecoveryDone:
					if e.Site != 2 {
						continue
					}
				default:
					continue
				}
				story = append(story, e.Type.String())
			}
			want := []string{"site.crash", "session.type2", "recovery.start", "session.type1", "recovery.done"}
			if !slices.Equal(story, want) {
				t.Fatalf("site 2 events = %v, want %v", story, want)
			}
		})
	}
}

// TestStartDownSiteRefusesServiceUntilRecover: a Site assembled StartDown —
// a process relaunched after SIGKILL — is a down site on any transport, the
// simulator included: it serves nothing and coordinates nothing until its
// own Recover has run the §3.4 procedure.
func TestStartDownSiteRefusesServiceUntilRecover(t *testing.T) {
	net := netsim.New(netsim.Config{})
	cat, err := replication.NewCatalog([]proto.SiteID{1, 2, 3}, xyEverywhere)
	if err != nil {
		t.Fatal(err)
	}
	seq := txn.NewSequencer()
	sites := map[proto.SiteID]*node.Site{}
	for id := proto.SiteID(1); id <= 3; id++ {
		s, err := node.NewSite(node.Env{Net: net, Catalog: cat, Seq: seq}, node.SiteConfig{
			Site:             id,
			DetectorDebounce: 20 * time.Millisecond,
			StartDown:        id == 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Register(id, s.Handle)
		s.Start()
		t.Cleanup(s.Stop)
		sites[id] = s
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if sites[2].Up() || sites[2].Operational() {
		t.Fatal("StartDown site reports up/operational before Recover")
	}
	if _, err := net.Call(ctx, 1, 2, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("probe of a StartDown site = %v, want ErrSiteDown", err)
	}
	err = sites[2].Exec(ctx, func(ctx context.Context, tx *txn.Tx) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	if err == nil {
		t.Fatal("StartDown site coordinated a transaction before Recover")
	}

	// Its peers treat it like any crashed site: exclude it and move on.
	writeUntilExcluded(t, sites[1], "x", 100)

	report, err := sites[2].Recover(ctx)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report.Session <= node.InitialSession || !sites[2].Operational() {
		t.Fatalf("after Recover: session %d, operational %v", report.Session, sites[2].Operational())
	}
	if err := sites[2].WaitCurrent(ctx); err != nil {
		t.Fatalf("WaitCurrent: %v", err)
	}
	if got := nodeRead(t, sites[2], "x"); got != 100 {
		t.Fatalf("x at recovered site = %d, want 100", got)
	}
}
