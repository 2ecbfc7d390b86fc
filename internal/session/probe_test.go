package session_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/session"
	"siterecovery/internal/transport"
)

// stubNet is a transport stub for the probe path: each peer answers with a
// canned reply (or a transport error), and the stub records the call order.
// A sequential stub has the reply when Send returns, as the simulator does;
// otherwise the reply comes at Wait, as over tcpnet.
type stubNet struct {
	sequential bool
	replies    map[proto.SiteID]stubReply

	mu    sync.Mutex
	calls []proto.SiteID
}

type stubReply struct {
	resp proto.Message
	err  error
}

func (s *stubNet) Call(ctx context.Context, from, to proto.SiteID, msg proto.Message) (proto.Message, error) {
	s.mu.Lock()
	s.calls = append(s.calls, to)
	s.mu.Unlock()
	r, ok := s.replies[to]
	if !ok {
		return nil, proto.ErrSiteDown
	}
	return r.resp, r.err
}

func (s *stubNet) Send(ctx context.Context, from, to proto.SiteID, msg proto.Message) transport.Pending {
	resp, err := s.Call(ctx, from, to, msg)
	if s.sequential {
		return transport.Done(resp, err)
	}
	return transport.InFlight(stubReply{resp, err})
}

func (s *stubNet) Local(w transport.Waiter) transport.Pending { return transport.Done(w.Wait()) }

func (s *stubNet) Post(ctx context.Context, from, to proto.SiteID, msg proto.Message) error {
	_, err := s.Call(ctx, from, to, msg)
	return err
}

func (r stubReply) Wait() (proto.Message, error) { return r.resp, r.err }

func (s *stubNet) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.calls)
}

var _ transport.Transport = (*stubNet)(nil)

func probeManager(t *testing.T, net *stubNet, sites int) *session.Manager {
	t.Helper()
	ids := make([]proto.SiteID, 0, sites)
	for i := 1; i <= sites; i++ {
		ids = append(ids, proto.SiteID(i))
	}
	cat, err := replication.NewCatalog(ids, map[proto.Item][]proto.SiteID{"x": ids})
	if err != nil {
		t.Fatal(err)
	}
	return session.New(session.Config{Site: 1, Net: net, Catalog: cat})
}

func up(sn proto.Session) stubReply {
	return stubReply{resp: proto.ProbeResp{Operational: true, Session: sn}}
}

func TestFindOperationalPeer(t *testing.T) {
	cases := []struct {
		name    string
		replies map[proto.SiteID]stubReply
		want    proto.SiteID
		wantErr error
	}{
		{
			name: "skips down peer",
			replies: map[proto.SiteID]stubReply{
				2: {err: proto.ErrSiteDown},
				3: up(4),
			},
			want: 3,
		},
		{
			name: "skips dropped reply",
			replies: map[proto.SiteID]stubReply{
				2: {err: proto.ErrDropped},
				3: up(4),
			},
			want: 3,
		},
		{
			name: "skips recovering (non-operational) answer",
			replies: map[proto.SiteID]stubReply{
				2: {resp: proto.ProbeResp{Operational: false}},
				3: up(9),
			},
			want: 3,
		},
		{
			name: "lowest operational peer wins",
			replies: map[proto.SiteID]stubReply{
				2: up(2),
				3: up(3),
				4: up(4),
			},
			want: 2,
		},
		{
			name: "no operational peer",
			replies: map[proto.SiteID]stubReply{
				2: {err: proto.ErrSiteDown},
				3: {resp: proto.ProbeResp{Operational: false}},
				4: {err: proto.ErrDropped},
			},
			wantErr: proto.ErrUnavailable,
		},
	}
	for _, tc := range cases {
		for _, sequential := range []bool{true, false} {
			mode := "parallel"
			if sequential {
				mode = "sequential"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				net := &stubNet{sequential: sequential, replies: tc.replies}
				m := probeManager(t, net, 4)
				got, err := m.FindOperationalPeer(context.Background())
				if tc.wantErr != nil {
					if !errors.Is(err, tc.wantErr) {
						t.Fatalf("err = %v, want %v", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatalf("FindOperationalPeer: %v", err)
				}
				if got != tc.want {
					t.Fatalf("picked peer %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestFindOperationalPeerShortCircuits pins the message-count contract: a
// transport that answers at send time stops probing at the first operational
// answer, while one that answers later probes every peer exactly once.
func TestFindOperationalPeerShortCircuits(t *testing.T) {
	replies := map[proto.SiteID]stubReply{2: up(2), 3: up(3), 4: up(4)}

	seq := &stubNet{sequential: true, replies: replies}
	if _, err := probeManager(t, seq, 4).FindOperationalPeer(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := seq.callCount(); got != 1 {
		t.Errorf("sequential probe sent %d messages, want 1", got)
	}

	par := &stubNet{sequential: false, replies: replies}
	if _, err := probeManager(t, par, 4).FindOperationalPeer(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := par.callCount(); got != 3 {
		t.Errorf("parallel probe sent %d messages, want 3", got)
	}
}
