package tcpnet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
)

// The client-path benchmarks take their bodies from the constructors below,
// so that TestClientAllocCeilings pins the allocations of exactly what the
// benchmarks time.

// benchReq is what the benchmarks send: a 2-op prepare-carrying BatchReq,
// answered by a vote.
var benchReq = proto.BatchReq{
	Txn: proto.TxnMeta{ID: 1 << 40, Class: proto.ClassUser, Origin: 1}, Mode: proto.CheckSession, Expect: 1, Prepare: true,
	Ops: []proto.BatchOp{{Item: "k00017", Value: 123456789}, {Item: "k01234", Value: 987654321}},
}

func voteHandler(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
	return proto.BatchResp{Vote: true, MaxSeq: 42}, nil
}

// callRoundTrip is one loopback echo on a connection dialed beforehand.
func callRoundTrip(tb testing.TB) func() {
	client, _ := newCountedPeer(tb, voteHandler)
	ctx := context.Background()
	call := func() {
		if _, err := client.Call(ctx, 1, 2, benchReq); err != nil {
			tb.Error(err)
		}
	}
	call() // dial outside the timing
	return call
}

// budgetRoundTrip is callRoundTrip under a transport.Budget, the context
// srnode runs each POST /txn under: the budget is started before the call
// and released after it, as there. One budget is reused, as srnode's
// connections reuse theirs, so that the count is the call's and not the
// budget's own.
func budgetRoundTrip(tb testing.TB) func() {
	client, _ := newCountedPeer(tb, voteHandler)
	budget := new(transport.Budget)
	call := func() {
		budget.Start(context.Background(), time.Now().Add(30*time.Second))
		if _, err := client.Call(budget, 1, 2, benchReq); err != nil {
			tb.Error(err)
		}
		budget.Release()
	}
	call() // dial outside the timing
	return call
}

// failed stops a fan-out at the first failure.
func failed(r *transport.Result) bool { return r.Err != nil }

// fanoutRound is one fan-out round the way a commit's phase one runs it: the
// request to the sending site itself and to two peers, every vote collected,
// on one goroutine.
func fanoutRound(tb testing.TB) func() {
	trs := newPair(tb, 3)
	for _, tr := range trs {
		tr.SetHandler(voteHandler)
	}
	ctx := context.Background()
	targets := []proto.SiteID{1, 2, 3}
	round := func() {
		results := transport.Fanout(nil, targets, func(to proto.SiteID) transport.Pending {
			return trs[1].Send(ctx, 1, to, benchReq)
		}, failed)
		for _, r := range results {
			if r.Err != nil {
				tb.Fatal(r.Err)
			}
		}
	}
	round() // dial outside the timing
	return round
}

// BenchmarkCall times a loopback echo: a 2-op prepare-carrying BatchReq out,
// its vote back, with one caller and with two sharing the connection.
func BenchmarkCall(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			call := callRoundTrip(b)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				n := b.N / callers
				if g == 0 {
					n += b.N % callers
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n && !b.Failed(); i++ {
						call()
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkFanout times one fan-out round over loopback the way a commit's
// phase one runs it: the same BatchReq to the sending site itself and to two
// peers, every vote collected, on one goroutine.
func BenchmarkFanout(b *testing.B) {
	round := fanoutRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestClientAllocCeilings holds a round trip and a fan-out round, both ends
// counted, to the allocations this code reaches. They were 12 and 31 while
// a demux goroutine read each connection and every call's reply crossed a
// channel to reach it, then 10 and 26 before a call's client side and its
// reply channel were pooled. Under a transport.Budget a round trip allocates
// no more than under context.Background: it was 18 while the held read asked
// the budget for Done, which armed its timer, and registered a
// context.AfterFunc on it. They were 8, 8 and 20 before a served request was
// decoded into its serving goroutine's owner, which it reuses, instead of
// boxing the request and making its handler context and its op list. Under
// the race detector sync.Pool drops what it is given at random, so the
// counts mean nothing there.
func TestClientAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, c := range []struct {
		name string
		body func(testing.TB) func()
		max  float64
	}{
		{"Call/callers=1", callRoundTrip, 5},
		{"Call/budget", budgetRoundTrip, 5},
		{"Fanout", fanoutRound, 14},
	} {
		run := c.body(t)
		if got := testing.AllocsPerRun(200, run); got > c.max {
			t.Errorf("%s allocates %.0f times per run, ceiling %.0f", c.name, got, c.max)
		}
	}
}
