package proto

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the wire decoder. It must
// never panic, and never allocate for more elements than the input has
// bytes. Any input the decoder accepts must re-encode to the canonical form
// of the same value: decoding that form gives the value back and encoding
// it again gives the same bytes. The seed corpus holds one message of
// every kind, including the edge fields (Expect, MissedBy, NoRecord) that
// only some call sites populate.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, msg := range wireSamples() {
		data, err := EncodeMessage(msg)
		if err != nil {
			f.Fatalf("seed encode %s: %v", msg.Kind(), err)
		}
		f.Add(data)
	}
	f.Add([]byte{kindRead})                                      // every field missing
	f.Add([]byte{kindBatch, 1, 2, 2, 2, 1, 0xff, 0xff, 0xff, 1}) // count past the input
	f.Add([]byte{kindMissedFetchResp, 0, 2, 4, 0, 4, 0})         // duplicate map key
	f.Add([]byte{kindWrite, 1, 2, 2, 0x80})                      // string length varint cut short

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded %x but cannot re-encode %#v: %v", data, msg, err)
		}
		again, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded form %x does not decode: %v", re, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("round trip not stable:\nfirst  %#v\nsecond %#v", msg, again)
		}
		if re2, _ := EncodeMessage(again); !bytes.Equal(re, re2) {
			t.Fatalf("encoding not byte-stable: %x then %x", re, re2)
		}
	})
}
