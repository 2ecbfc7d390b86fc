package proto

import (
	"reflect"
	"testing"
)

// TestDecodeMessageIgnoresTrailingBytes pins the forward-compatibility
// contract of the wire codec: a message produced by a NEWER peer — the known
// fields followed by fields this build has never heard of — decodes cleanly
// on this (the "older") side, with the known fields intact and the rest
// dropped. Without this property every added field would need a protocol
// version bump. What a newer peer may NOT do is send a kind this build
// lacks: that is an error, not a guess.
func TestDecodeMessageIgnoresTrailingBytes(t *testing.T) {
	future := []byte{0x07, 0x03, 'n', 'e', 'w', 0xff, 0xff, 0xff}
	for _, msg := range wireSamples() {
		data, err := EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(append(data, future...))
		if err != nil {
			t.Fatalf("%s with appended fields: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: known fields mutated by appended ones:\n got %#v\nwant %#v", msg.Kind(), got, msg)
		}
	}
	if msg, err := DecodeMessage(append([]byte{kindMax + 1}, future...)); err == nil {
		t.Errorf("unknown kind byte decoded as %#v", msg)
	}

	w := EncodeError(ErrWounded)
	back, err := DecodeError(append(w.Append(nil), future...))
	if err != nil || *back != *w {
		t.Errorf("wire error with appended fields = %+v, %v; want %+v", back, err, w)
	}
}
