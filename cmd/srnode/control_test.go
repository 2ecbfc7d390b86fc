package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

// control is one site's control port served two ways over real sockets:
// fast by serveControl, ref by a plain net/http server with the same mux.
type control struct {
	fast, ref string
	handoffs  atomic.Int32 // connections serveControl passed to net/http
	boom      atomic.Bool  // the next transactions panic
}

// startControl runs a one-site node holding item x behind both servers.
func startControl(t *testing.T) *control {
	t.Helper()
	hub := obs.NewHub(obs.Options{})
	n, err := node.New(node.Config{
		SiteConfig: node.SiteConfig{Site: 1, Obs: hub},
		Sites:      1,
		Addrs:      map[proto.SiteID]string{1: "127.0.0.1:0"},
		Placement:  map[proto.Item][]proto.SiteID{"x": {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	c := &control{}
	runTxn := txnEndpoint(func(ctx context.Context, body func(context.Context, *txn.Tx) error) error {
		if c.boom.Load() {
			panic("boom")
		}
		return n.Exec(ctx, body)
	}, n.Catalog)
	mux := controlMux(1, n, hub, nil, runTxn)
	ref := httptest.NewServer(mux)
	t.Cleanup(ref.Close)
	c.ref = ref.Listener.Addr().String()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.fast = ln.Addr().String()
	srv := &http.Server{Handler: mux, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			c.handoffs.Add(1)
		}
	}}
	done := make(chan error, 1)
	go func() { done <- serveControl(ln, srv, runTxn) }()
	t.Cleanup(func() {
		ln.Close()
		<-done
		srv.Close()
	})
	return c
}

// rawConn reads a connection's replies byte for byte.
type rawConn struct {
	net.Conn
	seen bytes.Buffer // read off the socket and not yet returned by reply
	br   *bufio.Reader
}

func dial(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(20 * time.Second))
	rc := &rawConn{Conn: c}
	rc.br = bufio.NewReader(io.TeeReader(c, &rc.seen))
	return rc
}

var dateLine = regexp.MustCompile("\r\nDate: [^\r]*\r\n")

// reply reads the next reply and returns its status and its bytes, with the
// Date value masked.
func (rc *rawConn) reply(t *testing.T) (int, string) {
	t.Helper()
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("reading a reply body: %v", err)
	}
	raw := rc.seen.Next(rc.seen.Len() - rc.br.Buffered())
	return resp.StatusCode, dateLine.ReplaceAllString(string(raw), "\r\nDate: *\r\n")
}

// closed reports whether the server closed the connection.
func (rc *rawConn) closed() bool {
	_, err := rc.br.ReadByte()
	return err == io.EOF
}

// txnPost is a POST /txn request in the form Go's http.Client writes it,
// plus any extra header lines.
func txnPost(body string, extra ...string) string {
	return "POST /txn HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: Go-http-client/1.1\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\nContent-Type: application/json\r\n" +
		strings.Join(append(extra, ""), "\r\n") + "Accept-Encoding: gzip\r\n\r\n" + body
}

// TestFastPathRepliesAsNetHTTP: for every kind of POST /txn reply, the fast
// path's bytes are net/http's but for the Date value, and only the oversize
// body is handed to net/http.
func TestFastPathRepliesAsNetHTTP(t *testing.T) {
	c := startControl(t)
	for _, tc := range []struct {
		name    string
		req     string
		status  int
		handoff bool
	}{
		{"commit", txnPost(`{"writes":[{"item":"x","value":7}]}`), http.StatusOK, false},
		{"commit-close", txnPost(`{"reads":["x"]}`, "Connection: close"), http.StatusOK, false},
		{"conflict", txnPost(`{"reads":["nope"]}`), http.StatusConflict, false},
		{"bad-json", txnPost(`{"reads":`), http.StatusBadRequest, false},
		{"empty", txnPost(`{}`), http.StatusBadRequest, false},
		{"oversize", txnPost(`{"reads":["` + strings.Repeat("k", 2<<20) + `"]}`), http.StatusRequestEntityTooLarge, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var replies [2]string
			for i, addr := range []string{c.fast, c.ref} {
				before := c.handoffs.Load()
				rc := dial(t, addr)
				go rc.Write([]byte(tc.req)) // the 413 is sent before the body is all read
				status, raw := rc.reply(t)
				if status != tc.status {
					t.Fatalf("%s: status %d, want %d: %q", addr, status, tc.status, raw)
				}
				if handed := c.handoffs.Load() != before; i == 0 && handed != tc.handoff {
					t.Errorf("handed to net/http: %v, want %v", handed, tc.handoff)
				}
				replies[i] = raw
			}
			if replies[0] != replies[1] {
				t.Errorf("fast path replied\n%q\nnet/http replied\n%q", replies[0], replies[1])
			}
		})
	}
}

// TestFastPathServesTheGoClient: what http.Client.Post sends — the loadgen's
// and load.HTTPTarget's traffic — never leaves the fast path, request after
// request on one keep-alive connection.
func TestFastPathServesTheGoClient(t *testing.T) {
	c := startControl(t)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		resp, err := client.Post("http://"+c.fast+"/txn", "application/json",
			strings.NewReader(`{"reads":["x"],"writes":[{"item":"x","value":`+strconv.Itoa(i)+`}]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != string(committedReply) {
			t.Fatalf("post %d: %d %q", i, resp.StatusCode, body)
		}
	}
	if got := c.handoffs.Load(); got != 0 {
		t.Errorf("%d connections handed to net/http, want 0", got)
	}
	head := goClientHead(t)
	if _, end := parseTxnHead(head); end != len(head) {
		t.Errorf("parseTxnHead(%q) = %d, want %d", head, end, len(head))
	}
}

// goClientHead is the head http.Client.Post(url, "application/json", body)
// writes for a POST /txn.
func goClientHead(tb testing.TB) []byte {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/txn", "application/json", strings.NewReader(`{"reads":["x"]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	c, err := ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var head []byte
	for !bytes.Contains(head, []byte("\r\n\r\n")) {
		buf := make([]byte, 512)
		n, err := c.Read(buf)
		if head = append(head, buf[:n]...); err != nil {
			tb.Fatal(err)
		}
	}
	return head[:bytes.Index(head, []byte("\r\n\r\n"))+4]
}

// TestFastPathHandsOffMidConnection: a request outside the subset moves the
// connection to net/http, which answers it and every request after it.
func TestFastPathHandsOffMidConnection(t *testing.T) {
	c := startControl(t)
	rc := dial(t, c.fast)
	for i, req := range []string{
		txnPost(`{"writes":[{"item":"x","value":1}]}`),
		"GET /status HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
		txnPost(`{"reads":["x"]}`),
	} {
		if _, err := rc.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		if status, raw := rc.reply(t); status != http.StatusOK {
			t.Fatalf("request %d: %q", i, raw)
		}
	}
	if got := c.handoffs.Load(); got != 1 {
		t.Errorf("%d hand-offs, want 1", got)
	}
}

// TestFastPathPipelined: requests sent before their predecessors' replies
// are answered in order.
func TestFastPathPipelined(t *testing.T) {
	c := startControl(t)
	rc := dial(t, c.fast)
	if _, err := rc.Write([]byte(txnPost(`{"writes":[{"item":"x","value":2}]}`) + txnPost(`{}`))); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{http.StatusOK, http.StatusBadRequest} {
		if status, raw := rc.reply(t); status != want {
			t.Fatalf("status %d, want %d: %q", status, want, raw)
		}
	}
	if got := c.handoffs.Load(); got != 0 {
		t.Errorf("%d hand-offs, want 0", got)
	}
}

// TestFastPathConnectionClose: Connection: close closes the connection after
// the reply.
func TestFastPathConnectionClose(t *testing.T) {
	c := startControl(t)
	rc := dial(t, c.fast)
	if _, err := rc.Write([]byte(txnPost(`{"reads":["x"]}`, "Connection: close"))); err != nil {
		t.Fatal(err)
	}
	if status, raw := rc.reply(t); status != http.StatusOK || !strings.Contains(raw, "\r\nConnection: close\r\n") {
		t.Fatalf("reply %q", raw)
	}
	if !rc.closed() {
		t.Error("the connection stayed open")
	}
}

// TestFastPathPanicClosesOnlyItsConnection: a transaction that panics
// closes its own connection; another, and the server, carry on.
func TestFastPathPanicClosesOnlyItsConnection(t *testing.T) {
	c := startControl(t)
	victim, other := dial(t, c.fast), dial(t, c.fast)
	c.boom.Store(true)
	if _, err := victim.Write([]byte(txnPost(`{"reads":["x"]}`))); err != nil {
		t.Fatal(err)
	}
	if !victim.closed() {
		t.Fatal("the panicking connection stayed open")
	}
	c.boom.Store(false)
	for _, rc := range []*rawConn{other, dial(t, c.fast)} {
		if _, err := rc.Write([]byte(txnPost(`{"reads":["x"]}`))); err != nil {
			t.Fatal(err)
		}
		if status, raw := rc.reply(t); status != http.StatusOK {
			t.Fatalf("after the panic: %q", raw)
		}
	}
}

// nearMisses are heads net/http must serve: each is outside the subset.
var nearMisses = []string{
	"POST /txn HTTP/1.1\r\nHost: a\r\nHost: a\r\nContent-Length: 2\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a b\r\nContent-Length: 2\r\n\r\n",
	"POST /txn HTTP/1.1\r\nContent-Length: 2\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: +5\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 1048577\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nX\tY: z\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nX-Y: z\r\n w\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nX-Y: z\x01\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\nContent-Length: 2\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nConnection: upgrade\r\n\r\n",
	"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
	"POST /txn HTTP/1.0\r\nHost: a\r\nContent-Length: 2\r\n\r\n",
	"POST /txn?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\n",
	"GET /status HTTP/1.1\r\nHost: a\r\n\r\n",
}

// TestParseTxnHeadRefusesNearMisses: duplicate or invalid Hosts, signed,
// repeated or oversize lengths, bad names and values, obs-folds, bare LFs,
// chunked bodies, Expect, HTTP/1.0, query strings and other routes all go to
// net/http.
func TestParseTxnHeadRefusesNearMisses(t *testing.T) {
	for _, head := range nearMisses {
		if _, end := parseTxnHead([]byte(head)); end >= 0 {
			t.Errorf("parseTxnHead(%q) = %d, want -1", head, end)
		}
	}
}

// FuzzControlHead: the recognizer never panics, and every head it accepts
// net/http's own server also serves as a POST /txn with the same
// ContentLength and Close — so the fast path only ever answers requests
// net/http would have handed to the same handler.
func FuzzControlHead(f *testing.F) {
	f.Add(goClientHead(f))
	f.Add([]byte(txnPost("", "Connection: close")))
	f.Add([]byte("POST /txn HTTP/1.1\r\nhost: [::1]:80\r\ncontent-length: 0007\r\nconnection: Keep-Alive\r\n\r\n"))
	for _, head := range nearMisses {
		f.Add([]byte(head))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, end := parseTxnHead(b)
		if end <= 0 {
			return
		}
		got, ok := netHTTPSees(t, b[:end])
		if !ok || got != (seenRequest{"POST", "/txn", int64(h.length), h.close}) {
			t.Fatalf("parseTxnHead(%q) = %+v; net/http's handler saw %+v (served: %v)", b[:end], h, got, ok)
		}
	})
}

type seenRequest struct {
	method, uri   string
	contentLength int64
	close         bool
}

// netHTTPSees writes head to an http.Server over a pipe and reports what its
// handler was given; ok is false when the server refused the head instead.
func netHTTPSees(t *testing.T, head []byte) (seen seenRequest, ok bool) {
	seenc := make(chan seenRequest, 1)
	srv := &http.Server{Handler: http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		seenc <- seenRequest{r.Method, r.RequestURI, r.ContentLength, r.Close}
	})}
	ln := &handoff{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client, server := net.Pipe()
	defer func() {
		client.Close()
		srv.Close()
		<-served
	}()
	go ln.pass(server)
	go client.Write(head) // no body: the handler is reached without one
	refused := make(chan struct{})
	go func() {
		http.ReadResponse(bufio.NewReader(client), nil)
		close(refused)
	}()
	select {
	case seen = <-seenc:
		return seen, true
	case <-refused:
		select {
		case seen = <-seenc:
			return seen, true
		default:
			return seen, false
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("net/http neither served nor refused %q", head)
	}
	return seen, false
}

// smallSendBuffers is a listener whose connections have a send buffer of a
// few KiB, so that a client that reads no replies fills it soon.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return c, err
}

// startTrio runs three nodes over loopback TCP, each with a replica of x and
// janitors too slow to settle anything inside a test, and serves site 1's
// POST /txn on the fast path with small send buffers. It returns the nodes,
// site 1's hub and its control address.
func startTrio(t *testing.T) (map[proto.SiteID]*node.Node, *obs.Hub, string) {
	t.Helper()
	addrs := map[proto.SiteID]string{}
	lns := map[proto.SiteID]net.Listener{}
	for id := proto.SiteID(1); id <= 3; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id], addrs[id] = ln, ln.Addr().String()
	}
	hub := obs.NewHub(obs.Options{})
	nodes := map[proto.SiteID]*node.Node{}
	for id := proto.SiteID(1); id <= 3; id++ {
		cfg := node.SiteConfig{Site: id, JanitorStaleAge: time.Hour}
		if id == 1 {
			cfg.Obs = hub
		}
		n, err := node.New(node.Config{
			SiteConfig: cfg, Sites: 3, Addrs: addrs, Listener: lns[id],
			Placement: map[proto.Item][]proto.SiteID{"x": {1, 2, 3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes[id] = n
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.NotFoundHandler()}
	done := make(chan error, 1)
	go func() { done <- serveControl(smallSendBuffers{ln}, srv, txnEndpoint(nodes[1].Exec, nodes[1].Catalog)) }()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return nodes, hub, ln.Addr().String()
}

// TestFastPathSlowReaderHoldsNoLocks: a client that pipelines write
// transactions and reads none of the replies stops its connection's loop
// once the socket takes no more reply bytes — but between transactions, not
// inside one: the transaction whose reply is stuck finished its phase two,
// so no site holds a transaction prepared and another client's write of the
// same item commits at once. Then every reply arrives, in order.
func TestFastPathSlowReaderHoldsNoLocks(t *testing.T) {
	nodes, hub, addr := startTrio(t)
	slow := dial(t, addr)
	slow.Conn.(*net.TCPConn).SetReadBuffer(4096)
	const n = 2000
	go func() {
		for i := 1; i <= n; i++ {
			body := `{"writes":[{"item":"x","value":` + strconv.Itoa(i) + `}]}`
			if _, err := slow.Write([]byte(txnPost(body))); err != nil {
				return // the test ended
			}
		}
	}()

	commits := func() int64 { return hub.Value(1, "txn", "commit.user") }
	prepared := func() int {
		sum := 0
		for _, nd := range nodes {
			sum += nd.DM.Prepared()
		}
		return sum
	}
	// The loop has stopped when its commit count stays put with nothing
	// prepared anywhere.
	deadline := time.Now().Add(20 * time.Second)
	for {
		before := commits()
		held := prepared()
		time.Sleep(100 * time.Millisecond)
		after := commits()
		if after >= n {
			t.Fatalf("all %d replies fit in the sockets' buffers; the test needs more transactions", n)
		}
		if after > 0 && after == before && held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d commits the loop stopped with %d transactions prepared: a reply the client does not read holds up phase two", after, held)
		}
	}
	stalled := commits()

	other := dial(t, addr)
	if _, err := other.Write([]byte(txnPost(`{"writes":[{"item":"x","value":-1}]}`))); err != nil {
		t.Fatal(err)
	}
	if status, raw := other.reply(t); status != http.StatusOK {
		t.Fatalf("another client's write of x while the slow client reads nothing: %q", raw)
	}
	for i := 1; i <= int(stalled); i++ {
		if status, raw := slow.reply(t); status != http.StatusOK {
			t.Fatalf("reply %d: %q", i, raw)
		}
	}
	t.Logf("the loop stopped after %d transactions", stalled)
}
