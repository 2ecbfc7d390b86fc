package netsim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

func echoHandler(t *testing.T) Handler {
	t.Helper()
	return func(_ context.Context, _ proto.SiteID, msg proto.Message) (proto.Message, error) {
		if _, ok := msg.(proto.ProbeReq); ok {
			return proto.ProbeResp{Operational: true, Session: 7}, nil
		}
		return nil, errors.New("unexpected message")
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := New(Config{})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))

	resp, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	probe, ok := resp.(proto.ProbeResp)
	if !ok || !probe.Operational || probe.Session != 7 {
		t.Fatalf("unexpected response %#v", resp)
	}
}

func TestCallToDownSite(t *testing.T) {
	n := New(Config{})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))
	n.SetDown(2, true)

	_, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("Call to down site: err = %v, want ErrSiteDown", err)
	}

	n.SetDown(2, false)
	if _, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("Call after rejoin: %v", err)
	}
}

func TestCallToUnregisteredSite(t *testing.T) {
	n := New(Config{})
	n.Register(1, echoHandler(t))
	_, err := n.Call(context.Background(), 1, 9, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}
}

func TestHandlerErrorPassesThrough(t *testing.T) {
	sentinel := errors.New("application-level failure")
	n := New(Config{})
	n.Register(1, echoHandler(t))
	n.Register(2, func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		return nil, sentinel
	})
	_, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestCrashDuringHandlerLosesReply(t *testing.T) {
	n := New(Config{})
	executed := false
	n.Register(1, echoHandler(t))
	n.Register(2, func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		executed = true
		n.SetDown(2, true) // crash between processing and reply
		return proto.ProbeResp{}, nil
	})
	_, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}
	if !executed {
		t.Fatal("handler side effects must stand even when the reply is lost")
	}
}

func TestCrashedCallerLosesReply(t *testing.T) {
	n := New(Config{})
	n.Register(1, echoHandler(t))
	n.Register(2, func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		n.SetDown(1, true) // the caller dies while the call is in flight
		return proto.ProbeResp{}, nil
	})
	_, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}
}

func TestLatencyBounds(t *testing.T) {
	n := New(Config{MinLatency: 2 * time.Millisecond, MaxLatency: 4 * time.Millisecond})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))

	start := time.Now()
	if _, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("round trip took %v, want >= 4ms (two one-way latencies)", elapsed)
	}
}

func TestContextCancellation(t *testing.T) {
	n := New(Config{MinLatency: time.Hour, MaxLatency: time.Hour})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := n.Call(ctx, 1, 2, proto.ProbeReq{})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not honor cancellation")
	}
}

func TestLossRate(t *testing.T) {
	n := New(Config{LossRate: 1.0})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))
	_, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
}

// TestStatsAccounting: every message that leaves a site counts once on the
// hub, whatever its fate; what became of it is the caller's error.
func TestStatsAccounting(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	n := New(Config{Obs: hub})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))
	n.Register(3, echoHandler(t))
	n.SetDown(3, true)

	ctx := context.Background()
	for range 5 {
		if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	for range 2 {
		if _, err := n.Call(ctx, 1, 3, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
			t.Fatalf("err = %v, want ErrSiteDown", err)
		}
	}

	// The local bus is not the wire.
	if _, err := n.Call(ctx, 1, 1, proto.ProbeReq{}); err != nil {
		t.Fatalf("local call: %v", err)
	}
	if sent, total := hub.Value(1, "net", "sent.probe"), hub.Sum("net", "sent"); sent != 7 || total != 7 {
		t.Errorf("site 1 sent %d probes, %d messages in all; want 7 and 7", sent, total)
	}
	if dropped := hub.Value(0, "net", "dropped"); dropped != 0 {
		t.Errorf("%d messages dropped on a reliable network", dropped)
	}
}

func TestSitesSorted(t *testing.T) {
	n := New(Config{})
	for _, s := range []proto.SiteID{5, 1, 3} {
		n.Register(s, echoHandler(t))
	}
	got := n.Sites()
	want := []proto.SiteID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Sites = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v, want %v", got, want)
		}
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New(Config{MinLatency: 100 * time.Microsecond, MaxLatency: 300 * time.Microsecond})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for range 50 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Call: %v", err)
	}
}

func TestPartitionSplitsAndHeals(t *testing.T) {
	n := New(Config{})
	for _, s := range []proto.SiteID{1, 2, 3} {
		n.Register(s, echoHandler(t))
	}
	n.Partition([]proto.SiteID{1}, []proto.SiteID{2, 3})

	ctx := context.Background()
	// Across the cut: looks exactly like a crash.
	if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("cross-partition call err = %v, want ErrSiteDown", err)
	}
	// Within a group: fine.
	if _, err := n.Call(ctx, 2, 3, proto.ProbeReq{}); err != nil {
		t.Fatalf("same-group call: %v", err)
	}
	n.Heal()
	if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("post-heal call: %v", err)
	}
}

// TestPartitionHealTable pins down the partition state machine's edge
// cases: group membership resolution, interaction with SetDown, and what
// Heal does and does not undo.
func TestPartitionHealTable(t *testing.T) {
	type call struct {
		from, to proto.SiteID
		ok       bool
	}
	cases := []struct {
		name  string
		setup func(n *Network)
		calls []call
	}{
		{
			name: "overlapping groups: the last group named wins",
			setup: func(n *Network) {
				// Site 2 appears in both groups; the second assignment
				// sticks, so 2 ends up with 3, not with 1.
				n.Partition([]proto.SiteID{1, 2}, []proto.SiteID{2, 3})
			},
			calls: []call{
				{from: 2, to: 3, ok: true},
				{from: 1, to: 2, ok: false},
				{from: 1, to: 3, ok: false},
			},
		},
		{
			name: "down site inside a group is still down for its groupmates",
			setup: func(n *Network) {
				n.SetDown(2, true)
				n.Partition([]proto.SiteID{1, 2}, []proto.SiteID{3})
			},
			calls: []call{
				{from: 1, to: 2, ok: false}, // down beats same-group
				{from: 1, to: 3, ok: false}, // partitioned
			},
		},
		{
			name: "partition, then SetDown, then Heal: heal removes the cut, not the crash",
			setup: func(n *Network) {
				n.Partition([]proto.SiteID{1}, []proto.SiteID{2, 3})
				n.SetDown(3, true)
				n.Heal()
			},
			calls: []call{
				{from: 1, to: 2, ok: true},  // cut removed
				{from: 1, to: 3, ok: false}, // crash survives the heal
				{from: 2, to: 3, ok: false},
			},
		},
		{
			name: "rejoining a site inside a foreign group does not bridge the cut",
			setup: func(n *Network) {
				n.SetDown(2, true)
				n.Partition([]proto.SiteID{1}, []proto.SiteID{2, 3})
				n.SetDown(2, false) // rejoins into group 2
			},
			calls: []call{
				{from: 2, to: 3, ok: true},
				{from: 1, to: 2, ok: false},
			},
		},
		{
			name: "empty partition call leaves everyone in the leftover group together",
			setup: func(n *Network) {
				n.Partition()
			},
			calls: []call{
				{from: 1, to: 2, ok: true},
				{from: 2, to: 3, ok: true},
			},
		},
		{
			name: "repartition replaces the previous grouping entirely",
			setup: func(n *Network) {
				n.Partition([]proto.SiteID{1}, []proto.SiteID{2, 3})
				n.Partition([]proto.SiteID{1, 2}, []proto.SiteID{3})
			},
			calls: []call{
				{from: 1, to: 2, ok: true},  // merged by the second cut
				{from: 2, to: 3, ok: false}, // split by the second cut
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{})
			for _, s := range []proto.SiteID{1, 2, 3} {
				n.Register(s, echoHandler(t))
			}
			tc.setup(n)
			for _, c := range tc.calls {
				_, err := n.Call(context.Background(), c.from, c.to, proto.ProbeReq{})
				if c.ok && err != nil {
					t.Errorf("call %v->%v: unexpected error %v", c.from, c.to, err)
				}
				if !c.ok && !errors.Is(err, proto.ErrSiteDown) {
					t.Errorf("call %v->%v: err = %v, want ErrSiteDown", c.from, c.to, err)
				}
			}
		})
	}
}

// TestPartitionStatsAccounting: a partition refusal and a crash refusal are
// the same error to the caller, and both cost a sent message.
func TestPartitionStatsAccounting(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	n := New(Config{Obs: hub})
	for _, s := range []proto.SiteID{1, 2, 3} {
		n.Register(s, echoHandler(t))
	}
	n.SetDown(3, true)
	n.Partition([]proto.SiteID{1}, []proto.SiteID{2, 3})

	ctx := context.Background()
	for range 3 { // partition refusals
		if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
			t.Fatalf("err = %v, want ErrSiteDown", err)
		}
	}
	for range 2 { // crash refusals (2 and 3 share a group, 3 is down)
		if _, err := n.Call(ctx, 2, 3, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
			t.Fatalf("err = %v, want ErrSiteDown", err)
		}
	}

	if got := [...]int64{hub.Value(1, "net", "sent.probe"), hub.Value(2, "net", "sent.probe"), hub.Value(0, "net", "partitions")}; got != [...]int64{3, 2, 1} {
		t.Errorf("probes sent by sites 1 and 2, partitions = %v, want [3 2 1]", got)
	}
}

// TestSetLossRate flips the drop probability mid-run: a network created
// reliable starts dropping, then recovers when the burst ends.
func TestSetLossRate(t *testing.T) {
	n := New(Config{})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))
	ctx := context.Background()

	if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("reliable call: %v", err)
	}
	n.SetLossRate(1.0) // clamped just below 1
	if got := n.LossRate(); got >= 1 || got <= 0 {
		t.Fatalf("LossRate = %v, want clamped into (0,1)", got)
	}
	dropped := 0
	for range 50 {
		if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); errors.Is(err, proto.ErrDropped) {
			dropped++
		}
	}
	if dropped < 45 {
		t.Fatalf("dropped %d of 50 calls at ~certain loss", dropped)
	}
	n.SetLossRate(0)
	if _, err := n.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("call after burst: %v", err)
	}
	n.SetLossRate(-0.5)
	if got := n.LossRate(); got != 0 {
		t.Fatalf("negative rate not clamped to 0: %v", got)
	}
}

func TestPartitionImplicitLeftoverGroup(t *testing.T) {
	n := New(Config{})
	for _, s := range []proto.SiteID{1, 2, 3} {
		n.Register(s, echoHandler(t))
	}
	// Only site 1 is named; 2 and 3 fall into the implicit leftover group
	// together.
	n.Partition([]proto.SiteID{1})
	if _, err := n.Call(context.Background(), 2, 3, proto.ProbeReq{}); err != nil {
		t.Fatalf("leftover-group call: %v", err)
	}
	if _, err := n.Call(context.Background(), 1, 3, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("cross call err = %v", err)
	}
}

// TestCrashRacesReplyPath: SetDown while calls to the site are in their
// reply path. The down flags are read under the network mutex, so -race has
// nothing to report, and every call either gets its reply or ErrSiteDown.
func TestCrashRacesReplyPath(t *testing.T) {
	n := New(Config{})
	n.Register(1, echoHandler(t))
	n.Register(2, echoHandler(t))

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for down := true; ; down = !down {
			select {
			case <-stop:
				n.SetDown(2, false)
				return
			default:
				n.SetDown(2, down)
			}
		}
	}()
	var calls sync.WaitGroup
	for range 4 {
		calls.Add(1)
		go func() {
			defer calls.Done()
			for range 500 {
				if _, err := n.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil && !errors.Is(err, proto.ErrSiteDown) {
					t.Errorf("call during crash flips: %v", err)
					return
				}
			}
		}()
	}
	calls.Wait()
	close(stop)
	flips.Wait()
}
