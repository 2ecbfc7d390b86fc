package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"siterecovery/internal/load"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
)

// viaJSON is the decode POST /txn did before it had a scanner.
func viaJSON(body []byte) (load.TxnRequest, error) {
	var req load.TxnRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// FuzzParseTxn: whatever the scanner accepts, encoding/json decodes to the
// same value — so the scanner can only ever be a faster way to the same
// answer, never a second dialect.
func FuzzParseTxn(f *testing.F) {
	for _, req := range []load.TxnRequest{
		{},
		{Reads: []proto.Item{"a"}},
		{Reads: []proto.Item{"k00017", "k00042"}, Writes: []load.TxnWrite{{Item: "k00042", Value: -7}}},
		{Writes: []load.TxnWrite{{Item: "x", Value: 1 << 62}, {Item: "y <&> z", Value: -1 << 63}}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"reads":[]}`, `{"writes":[]}`, `{"reads":["a"],"writes":[]}`,
		`{"writes":[{"item":"x","value":007}]}`, `{"writes":[{"item":"x","value":-0}]}`,
		`{"writes":[{"item":"x","value":1e3}]}`, `{"writes":[{"item":"x","value":1.0}]}`,
		`{"writes":[{"item":"x","value":9223372036854775808}]}`, `{"writes":[{"item":"x","value":-}]}`,
		`{"reads":["ab"]}`, `{"reads":["a\"b"]}`, `{"reads":["é"]}`, "{\"reads\":[\"a\tb\"]}",
		`{"reads":["a"],"reads":["b"]}`, `{"writes":[{"item":"x","value":1}],"reads":["a"]}`,
		`{"writes":[{"value":1,"item":"x"}]}`, `{"writes":[{"item":"x","value":1,"item":"y"}]}`,
		`{"reads":["a"]} `, `{"reads":["a"]}{"reads":["b"]}`, ` {"reads":["a"]}`, `{"reads": ["a"]}`,
		`{"reads":["a",]}`, `{"reads":["a"],}`, `{"reads":["a"]`, `{"other":1}`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got load.TxnRequest
		if !parseTxn(body, &got, nil) {
			return
		}
		want, err := viaJSON(body)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner accepted %q as %+v; encoding/json says %+v, %v", body, got, want, err)
		}
	})
}

// TestParseTxnTakesWhatClientsSend: the scanner is only worth having if it
// accepts the bytes load.HTTPTarget and the ledger's clients produce, into
// a fresh request or one a connection reuses from body to body.
func TestParseTxnTakesWhatClientsSend(t *testing.T) {
	var reused load.TxnRequest
	for _, req := range []load.TxnRequest{
		{Reads: []proto.Item{"k00017", "k00042"}},
		{Writes: []load.TxnWrite{{Item: "k00042", Value: -7}}},
		{Reads: []proto.Item{"a"}, Writes: []load.TxnWrite{{Item: "a", Value: 1}, {Item: "b", Value: 0}}},
		{Reads: []proto.Item{"c"}},
	} {
		body, _ := json.Marshal(req)
		var got load.TxnRequest
		if ok := parseTxn(body, &got, nil); !ok || !reflect.DeepEqual(got, req) {
			t.Errorf("parseTxn(%s) = %+v, %v", body, got, ok)
		}
		if ok := parseTxn(body, &reused, nil); !ok || !slices.Equal(reused.Reads, req.Reads) || !slices.Equal(reused.Writes, req.Writes) {
			t.Errorf("parseTxn(%s) into a reused request = %+v, %v", body, reused, ok)
		}
	}
}

// TestParseTxnInternsKnownNames: with the catalog, a body's known item names
// are the catalog's own strings, so a connection that reuses its request
// parses a body without allocating; an unknown name still parses, as a
// string of its own, and fails where the transaction uses it.
func TestParseTxnInternsKnownNames(t *testing.T) {
	cat, err := replication.NewCatalog([]proto.SiteID{1, 2}, map[proto.Item][]proto.SiteID{"k00017": {1, 2}, "k00042": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"reads":["k00017"],"writes":[{"item":"k00042","value":-7}]}`)
	var req load.TxnRequest
	if !parseTxn(body, &req, cat) {
		t.Fatalf("parseTxn(%s) refused it", body)
	}
	for _, item := range []proto.Item{req.Reads[0], req.Writes[0].Item} {
		if own, _ := cat.Intern([]byte(item)); unsafe.StringData(string(item)) != unsafe.StringData(string(own)) {
			t.Errorf("%q is not the catalog's string", item)
		}
	}
	if n := testing.AllocsPerRun(100, func() { parseTxn(body, &req, cat) }); n != 0 {
		t.Errorf("parsing a body of known items into a reused request allocates %v times", n)
	}
	unknown := []byte(`{"reads":["nope"]}`)
	if !parseTxn(unknown, &req, cat) || req.Reads[0] != "nope" {
		t.Fatalf("parseTxn(%s) = %+v", unknown, req)
	}
}

// TestDecodeTxnFallsBack: every body the endpoint took before the scanner
// still decodes, and a bad one fails with encoding/json's own words.
func TestDecodeTxnFallsBack(t *testing.T) {
	for _, body := range []string{
		"{\n  \"reads\": [\"a\", \"b\"],\n  \"writes\": [{\"item\": \"x\", \"value\": 3}]\n}\n",
		`{"writes":[{"value":3,"item":"x"}],"reads":["a","b"]}`,
		`{"reads":["a","b"],"writes":[{"item":"x","value":3}],"ignored":true}`,
		`{"reads":["a","b"],"writes":[{"item":"x","value":3}]} trailing`,
		`{"reads":[]}`, `{}`,
		`{"reads":["a"`, `{"reads":"a"}`, `{"writes":[{"item":"x","value":1.5}]}`, `not json`, ``,
	} {
		var got load.TxnRequest
		err := decodeTxn([]byte(body), &got, nil)
		want, wantErr := viaJSON([]byte(body))
		if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("decodeTxn(%q) = %+v, %v; before the scanner: %+v, %v", body, got, err, want, wantErr)
		}
	}
}

// TestTxnBodyIsBounded: the handler reads the whole body now, so it must not
// read more than a frame's worth; an oversized one is a 413 with the usual
// error JSON, and an empty transaction is still a 400.
func TestTxnBodyIsBounded(t *testing.T) {
	mux := controlMux(1, nil, obs.NewHub(obs.Options{}), nil, txnEndpoint(nil, nil)) // neither request reaches the node
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txn", strings.NewReader(body)))
		return rec
	}
	big := post(`{"reads":["` + strings.Repeat("k", 2<<20) + `"]}`)
	var msg struct{ Error string }
	if err := json.Unmarshal(big.Body.Bytes(), &msg); err != nil || big.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(msg.Error, "too large") || big.Header().Get("Content-Type") != "application/json" {
		t.Errorf("2 MiB body: status %d, body %q (%v)", big.Code, big.Body, err)
	}
	if rec := post(`{}`); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "empty transaction") {
		t.Errorf("empty transaction: status %d, body %q", rec.Code, rec.Body)
	}
}
