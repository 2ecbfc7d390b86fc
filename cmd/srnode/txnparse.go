package main

import (
	"bytes"
	"encoding/json"
	"strconv"

	"siterecovery/internal/load"
	"siterecovery/internal/proto"
)

// decodeTxn decodes a POST /txn body. Bodies in the form clients actually
// send skip encoding/json's reflection; everything else is decoded exactly as
// before, by a json.Decoder (first value wins, trailing bytes ignored), so
// the accepted language and the error texts are encoding/json's.
func decodeTxn(body []byte) (load.TxnRequest, error) {
	if req, ok := parseTxn(body); ok {
		return req, nil
	}
	var req load.TxnRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// parseTxn scans the compact form json.Marshal gives a load.TxnRequest:
//
//	{"reads":["a","b"],"writes":[{"item":"x","value":-3}]}
//
// either member optional, in that order. It reports ok=false on anything
// else — whitespace, escapes, non-ASCII, empty arrays, other, repeated or
// reordered keys, a number that is not a plain int64, trailing bytes — and
// whenever it reports ok=true, encoding/json decodes the same bytes to the
// same value (FuzzParseTxn).
func parseTxn(b []byte) (req load.TxnRequest, ok bool) {
	p := txnScanner{b: b}
	if !p.lit("{") {
		return req, false
	}
	sep := ""
	if p.lit(`"reads":[`) {
		for more := true; more; more = p.lit(",") {
			s, ok := p.str()
			if !ok {
				return req, false
			}
			req.Reads = append(req.Reads, proto.Item(s))
		}
		if !p.lit("]") {
			return req, false
		}
		sep = ","
	}
	if p.lit(sep + `"writes":[`) {
		for more := true; more; more = p.lit(",") {
			if !p.lit(`{"item":`) {
				return req, false
			}
			s, ok := p.str()
			if !ok || !p.lit(`,"value":`) {
				return req, false
			}
			v, ok := p.num()
			if !ok || !p.lit("}") {
				return req, false
			}
			req.Writes = append(req.Writes, load.TxnWrite{Item: proto.Item(s), Value: proto.Value(v)})
		}
		if !p.lit("]") {
			return req, false
		}
	}
	return req, p.lit("}") && p.i == len(p.b)
}

// txnScanner is parseTxn's cursor over the body.
type txnScanner struct {
	b []byte
	i int
}

// lit consumes s if it comes next.
func (p *txnScanner) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// str consumes a quoted string of printable ASCII with no escapes.
func (p *txnScanner) str() (string, bool) {
	if !p.lit(`"`) {
		return "", false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return string(p.b[start : p.i-1]), true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// num consumes a JSON integer that fits an int64: no fraction, no exponent,
// no leading zeros.
func (p *txnScanner) num() (int64, bool) {
	start := p.i
	p.lit("-")
	digits := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	if p.i == digits || p.b[digits] == '0' && p.i-digits > 1 {
		return 0, false
	}
	v, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
	return v, err == nil
}
