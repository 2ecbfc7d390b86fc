package proto

import "testing"

var (
	benchBytes []byte
	benchMsg   Message
)

// BenchmarkCodec times one encode plus one decode of each message kind and
// reports its wire size.
func BenchmarkCodec(b *testing.B) {
	for _, msg := range wireSamples() {
		b.Run(msg.Kind(), func(b *testing.B) {
			wire, err := EncodeMessage(msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchBytes, _ = EncodeMessage(msg)
				benchMsg, _ = DecodeMessage(benchBytes)
			}
			b.ReportMetric(float64(len(wire)), "wire-B")
		})
	}
}
