package netsim

import (
	"context"
	"testing"
	"time"

	"siterecovery/internal/proto"
)

// BenchmarkCall measures concurrent Call throughput with the latency/loss
// RNG active. The configuration forces an RNG draw on both legs of every
// call (MaxLatency > MinLatency with a sub-tick range, plus a non-zero loss
// rate) without actually sleeping, so the benchmark isolates the sampling
// path: before the RNG moved to its own mutex, every draw serialized
// against the topology map under the network-wide lock.
func BenchmarkCall(b *testing.B) {
	n := New(Config{
		MinLatency: 0,
		MaxLatency: time.Nanosecond, // forces a draw, sleeps ~never
		Seed:       7,
	})
	n.SetLossRate(0.001)
	for site := proto.SiteID(1); site <= 4; site++ {
		n.Register(site, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
			return proto.ProbeResp{Operational: true, Session: 1}, nil
		})
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		to := proto.SiteID(2)
		for pb.Next() {
			_, _ = n.Call(ctx, 1, to, proto.ProbeReq{})
			to++
			if to > 4 {
				to = 2
			}
		}
	})
}
