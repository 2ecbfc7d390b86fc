package main

import (
	"bytes"
	"encoding/json"
	"strconv"

	"siterecovery/internal/load"
	"siterecovery/internal/proto"
)

// decodeTxn decodes a POST /txn body into req: by parseTxn when it is in the
// form clients send, otherwise exactly as before the scanner — a
// json.Decoder into a zero request, first value wins, trailing bytes ignored
// — so the accepted language and the error texts stay encoding/json's.
func decodeTxn(body []byte, req *load.TxnRequest, names proto.Interner) error {
	if parseTxn(body, req, names) {
		return nil
	}
	*req = load.TxnRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// parseTxn scans the compact form json.Marshal gives a load.TxnRequest,
//
//	{"reads":["a","b"],"writes":[{"item":"x","value":-3}]}
//
// either member optional, in that order, without reflection. Anything else
// — whitespace, escapes, non-ASCII, empty arrays, other, repeated or
// reordered keys, a number that is not a plain int64, trailing bytes — is
// false, and whenever it is true encoding/json decodes the same bytes to the
// same value (FuzzParseTxn). It fills req, reusing its slices; on false req
// holds whatever was scanned. An item name names knows is names' string
// (nil knows none).
func parseTxn(b []byte, req *load.TxnRequest, names proto.Interner) bool {
	req.Reads, req.Writes = req.Reads[:0], req.Writes[:0]
	p := txnScanner{b: b, names: names}
	p.want("{")
	sep := ""
	if p.lit(`"reads":[`) {
		for more := true; more; more = p.lit(",") {
			req.Reads = append(req.Reads, p.item())
		}
		p.want("]")
		sep = ","
	}
	if p.lit(sep + `"writes":[`) {
		for more := true; more; more = p.lit(",") {
			p.want(`{"item":`)
			item := p.item()
			p.want(`,"value":`)
			req.Writes = append(req.Writes, load.TxnWrite{Item: item, Value: proto.Value(p.num())})
			p.want("}")
		}
		p.want("]")
	}
	p.want("}")
	return !p.bad && p.i == len(b)
}

// txnScanner is parseTxn's cursor. The first mismatch sets bad, after which
// nothing matches and the cursor stays put.
type txnScanner struct {
	b     []byte
	i     int
	bad   bool
	names proto.Interner
}

// lit consumes s if it comes next.
func (p *txnScanner) lit(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// want is a lit that must match.
func (p *txnScanner) want(s string) { p.bad = !p.lit(s) }

// item consumes a quoted string of printable ASCII with no escapes: the
// interner's string for the name when it has one.
func (p *txnScanner) item() proto.Item {
	p.want(`"`)
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= 0x20 && p.b[p.i] <= 0x7e && p.b[p.i] != '"' && p.b[p.i] != '\\' {
		p.i++
	}
	p.want(`"`)
	name := p.b[start:max(start, p.i-1)]
	if p.names != nil {
		if item, ok := p.names.Intern(name); ok {
			return item
		}
	}
	return proto.Item(name)
}

// num consumes a JSON integer that fits an int64: no fraction or exponent
// (the "}" wanted next refuses them), no leading zeros.
func (p *txnScanner) num() int64 {
	start := p.i
	p.lit("-")
	digits := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	v, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
	p.bad = p.bad || err != nil || p.b[digits] == '0' && p.i-digits > 1
	return v
}
