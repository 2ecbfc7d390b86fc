package tcpnet

import (
	"bytes"
	"testing"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// FuzzFrameHeader feeds arbitrary payloads to both header decoders and on
// to the body decoders, the whole path an inbound frame takes. Nothing may
// panic; a request header that parses must survive re-encoding: the same
// fields, the same body, and stable bytes from then on.
func FuzzFrameHeader(f *testing.F) {
	probe, _ := proto.EncodeMessage(proto.ProbeReq{})
	for _, h := range []reqHeader{
		{id: 1, from: 1, budgetUS: 5_000_000},
		{id: 1 << 40, from: 3, budgetUS: -7, traced: true, span: obs.SpanContext{Root: 9, Span: 3<<48 | 5, Parent: 2, Origin: 3}},
		{id: 2, from: 1, budgetUS: 5_000_000, oneWay: true},
		{id: 3, from: 2, budgetUS: 1, oneWay: true, traced: true, span: obs.SpanContext{Root: 9, Span: 2<<48 | 6, Parent: 2, Origin: 2}},
	} {
		f.Add(append(appendReqHeader(nil, h), probe...))
	}
	f.Add(appendResponse(nil, 7, proto.ProbeResp{Operational: true}, nil)[4:])
	f.Add(appendResponse(nil, 8, nil, proto.ErrWounded)[4:])
	f.Add([]byte{200, 1, 2})           // header length past the payload
	f.Add([]byte{3, 0x80, 0x80, 0x80}) // varint cut short
	// An ask: a one-way header with flag 4, and no body.
	f.Add(appendReqHeader(nil, reqHeader{from: 2, oneWay: true, ask: true}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		if id, isErr, body, err := parseRespHeader(payload); err == nil {
			decodeReply(isErr, body)
			again := appendRespHeader(nil, id, isErr)
			if id2, isErr2, _, err := parseRespHeader(again); err != nil || id2 != id || isErr2 != isErr {
				t.Fatalf("response header %d/%v re-parsed as %d/%v, %v", id, isErr, id2, isErr2, err)
			}
		}
		h, body, err := parseReqHeader(payload)
		if err != nil {
			return
		}
		proto.DecodeMessage(body)
		re := append(appendReqHeader(nil, h), body...)
		h2, body2, err := parseReqHeader(re)
		if err != nil || h2 != h || !bytes.Equal(body2, body) {
			t.Fatalf("request header not stable: %+v then %+v (%v)", h, h2, err)
		}
		if re2 := append(appendReqHeader(nil, h2), body2...); !bytes.Equal(re, re2) {
			t.Fatalf("request re-encoding not byte-stable: %x then %x", re, re2)
		}
	})
}
