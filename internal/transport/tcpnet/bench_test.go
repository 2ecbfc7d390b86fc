package tcpnet

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
)

// BenchmarkCall times a loopback echo: a 2-op prepare-carrying BatchReq out,
// its vote back, with one caller and with two sharing the connection.
func BenchmarkCall(b *testing.B) {
	req := proto.BatchReq{
		Txn: proto.TxnMeta{ID: 1 << 40, Class: proto.ClassUser, Origin: 1}, Mode: proto.CheckSession, Expect: 1, Prepare: true,
		Ops: []proto.BatchOp{{Item: "k00017", Value: 123456789}, {Item: "k01234", Value: 987654321}},
	}
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			client, _ := newCountedPeer(b, func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
				return proto.BatchResp{Vote: true, MaxSeq: 42}, nil
			})
			ctx := context.Background()
			if _, err := client.Call(ctx, 1, 2, req); err != nil { // dial outside the timing
				b.Fatal(err)
			}
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
					for i := 0; i < n; i++ {
						if _, err := client.Call(ctx, 1, 2, req); err != nil {
							b.Error(err)
							return
						}
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
	req := proto.BatchReq{
		Txn: proto.TxnMeta{ID: 1 << 40, Class: proto.ClassUser, Origin: 1}, Mode: proto.CheckSession, Expect: 1, Prepare: true,
		Ops: []proto.BatchOp{{Item: "k00017", Value: 123456789}, {Item: "k01234", Value: 987654321}},
	}
	trs := newPair(b, 3)
	for _, tr := range trs {
		tr.SetHandler(func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
			return proto.BatchResp{Vote: true, MaxSeq: 42}, nil
		})
	}
	ctx := context.Background()
	targets := []proto.SiteID{1, 2, 3}
	round := func() error {
		return transport.FirstError(transport.Fanout(targets, func(to proto.SiteID) transport.Pending {
			return trs[1].Send(ctx, 1, to, req)
		}, transport.Failed))
	}
	if err := round(); err != nil { // dial outside the timing
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := round(); err != nil {
			b.Fatal(err)
		}
	}
}
