package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"siterecovery/internal/load"
	"siterecovery/internal/rawio"
	"siterecovery/internal/transport"
	"siterecovery/internal/txn"
)

// maxTxnBody bounds a POST /txn body, which is read whole: 1 MiB, tcpnet's
// maxFrame.
const maxTxnBody = 1 << 20

// committedReply is what json.NewEncoder(w).Encode({"committed": true})
// writes.
var committedReply = []byte("{\"committed\":true}\n")

// txnFunc answers one POST /txn body with the reply's status and JSON body.
// Each connection makes its own and answers one body at a time with it: it
// keeps its decoded request, and the body that applies it, from one
// transaction to the next.
type txnFunc func(ctx context.Context, body []byte) (status int, reply []byte)

// txnEndpoint returns the maker of POST /txn's transaction logic, the same
// behind both framings: decode the body, refuse an empty transaction, run it
// through exec (node.Node.Exec) under a 30 s budget. The body is free for
// reuse once a txnFunc returns: a decoded request shares no bytes with it.
func txnEndpoint(exec func(context.Context, func(context.Context, *txn.Tx) error) error) func() txnFunc {
	return func() txnFunc {
		var req load.TxnRequest
		apply := func(ctx context.Context, tx *txn.Tx) error { return load.Apply(ctx, tx, req) }
		return func(ctx context.Context, body []byte) (int, []byte) {
			if err := decodeTxn(body, &req); err != nil {
				return errorReply(http.StatusBadRequest, "bad JSON body: "+err.Error())
			}
			if len(req.Reads) == 0 && len(req.Writes) == 0 {
				return errorReply(http.StatusBadRequest, "empty transaction")
			}
			var budget transport.Budget
			budget.Start(ctx, time.Now().Add(30*time.Second))
			err := exec(&budget, apply)
			budget.Release()
			clear(req.Reads) // the kept request pins no item of this transaction
			clear(req.Writes)
			if err != nil {
				return errorReply(http.StatusConflict, err.Error())
			}
			return http.StatusOK, committedReply
		}
	}
}

// errorReply is the status and the bytes writeJSON sends for {"error": msg}.
func errorReply(status int, msg string) (int, []byte) {
	b, _ := json.Marshal(map[string]string{"error": msg}) // a string map cannot fail to encode
	return status, append(b, '\n')
}

// serveControl serves the control port on ln until ln fails. Every
// connection starts on serveFast, which answers the requests in the strict
// POST /txn subset parseTxnHead recognizes with a txnFunc of its own from
// newTxn; the first request it does not recognize hands the connection, with
// every byte already read, to srv, which serves it from then on.
func serveControl(ln net.Listener, srv *http.Server, newTxn func() txnFunc) error {
	slow := &handoff{addr: ln.Addr(), conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(slow) }()
	defer func() {
		slow.Close()
		<-served
	}()
	for {
		c, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if err != nil { // out of descriptors, say: wait, as http.Server does
			time.Sleep(5 * time.Millisecond)
			continue
		}
		go serveFast(c, slow, newTxn)
	}
}

// serveFast is one control connection's request loop while its requests stay
// in the subset. It reads a head into one buffer, the body after it (into
// the same buffer when both fit), runs the transaction and writes the reply
// with one Write. A committed transaction's reply leaves at its commit
// point, through the connection's fastAnswer, and the transaction's phase
// two runs before the next request is read. Unlike net/http it does not
// watch the socket while the transaction runs, so a client that goes away
// does not cancel it; the 30 s budget and the lock timeouts still bound it.
// A panic is logged and closes this connection only, as in net/http.
func serveFast(c net.Conn, slow *handoff, newTxn func() txnFunc) {
	defer func() {
		if err := recover(); err != nil {
			log.Printf("srnode: panic serving %v: %v\n%s", c.RemoteAddr(), err, debug.Stack())
			c.Close()
		}
	}()
	rw := rawio.Wrap(c) // the fast path's reads and writes; net/http gets c
	runTxn := newTxn()
	ans := &fastAnswer{rw: rw}
	ctx := txn.WithAnswer(context.Background(), ans)
	buf := make([]byte, maxHead)
	n := 0 // buf[:n] is read and not yet served
	for {
		h, end := parseTxnHead(buf[:n])
		if end < 0 || end == 0 && n == len(buf) {
			slow.pass(&replayConn{Conn: c, pending: buf[:n]})
			return
		}
		if end == 0 {
			m, err := rw.Read(buf[n:])
			if n += m; m == 0 && err != nil {
				c.Close()
				return
			}
			continue
		}
		var body []byte
		next := end + h.length // buf[next:n] is the next request's, if any
		if next <= len(buf) {
			for n < next {
				m, err := rw.Read(buf[n:])
				if n += m; n < next && err != nil {
					c.Close()
					return
				}
			}
			body = buf[end:next]
		} else {
			body = make([]byte, h.length)
			if _, err := io.ReadFull(rw, body[copy(body, buf[end:n]):]); err != nil {
				c.Close()
				return
			}
			next = n
		}
		ans.close, ans.out, ans.sent = h.close, ans.out[:0], 0
		status, reply := runTxn(ctx, body)
		if len(ans.out) == 0 { // not answered at a commit point
			ans.out = appendReply(ans.out, status, reply, h.close)
		}
		if rest := ans.out[ans.sent:]; len(rest) > 0 {
			if _, err := rw.Write(rest); err != nil {
				c.Close()
				return
			}
		}
		if h.close {
			c.Close()
			return
		}
		n = copy(buf, buf[next:n])
	}
}

// fastAnswer is a control connection's txn.Answerer: at a transaction's
// commit point it writes the committed reply with one non-blocking write,
// and serveFast writes what the socket did not take then after the
// transaction's phase two. Answer never waits for the client, so a client
// slow to read its reply delays no participant's install and holds no
// lock anywhere. net/http's handlers cannot write without waiting, which is
// why the POST /txn it serves is answered after the transaction returns.
type fastAnswer struct {
	rw    net.Conn
	close bool   // the request asked for Connection: close
	out   []byte // the reply being written; empty until there is one
	sent  int    // how much of out is written
}

func (a *fastAnswer) Answer() {
	a.out = appendReply(a.out, http.StatusOK, committedReply, a.close)
	a.sent = rawio.TryWrite(a.rw, a.out)
}

// appendReply appends the response net/http writes for a handler that sets
// Content-Type: application/json and writes body: the handler's header, then
// Date and Content-Length, then Connection: close when the request asked for
// it.
func appendReply(b []byte, status int, body []byte, close bool) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\nContent-Type: application/json\r\nDate: "...)
	b = time.Now().UTC().AppendFormat(b, http.TimeFormat)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if close {
		b = append(b, "\r\nConnection: close"...)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// handoff is the in-process listener srv serves: serveFast passes it the
// connections whose next request is outside the subset.
type handoff struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (h *handoff) pass(c net.Conn) {
	select {
	case h.conns <- c:
	case <-h.done:
		c.Close()
	}
}

func (h *handoff) Accept() (net.Conn, error) {
	select {
	case c := <-h.conns:
		return c, nil
	case <-h.done:
		return nil, net.ErrClosed
	}
}

func (h *handoff) Close() error {
	h.once.Do(func() { close(h.done) })
	return nil
}

func (h *handoff) Addr() net.Addr { return h.addr }

// replayConn is a handed-off connection: its first reads return the bytes
// serveFast had already read.
type replayConn struct {
	net.Conn
	pending []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// CloseWrite lets net/http half-close before it closes, as it does on a
// *net.TCPConn after an error reply with the request body unread (the 413).
func (c *replayConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// maxHead is the most head bytes the fast path buffers; a longer head goes
// to net/http.
const maxHead = 4 << 10

// txnHead is what the fast path needs of a head it recognizes.
type txnHead struct {
	length int  // Content-Length
	close  bool // Connection: close
}

// parseTxnHead recognizes a request head at the start of b in the subset the
// fast path serves: the request line POST /txn HTTP/1.1, CRLF line ends, no
// continuation lines, valid header names and values, exactly one Host (of
// host-name, address and port bytes), exactly one decimal Content-Length of
// at most maxTxnBody, at most one Connection (close or keep-alive), and no
// Transfer-Encoding or Expect. It returns the head's length through its
// blank line; 0 when b is a prefix of such a head so far; -1 when b cannot
// start one. Whatever it accepts, net/http serves as a POST /txn with the
// same ContentLength and Close (FuzzControlHead).
func parseTxnHead(b []byte) (h txnHead, end int) {
	const reqLine = "POST /txn HTTP/1.1\r\n"
	if k := min(len(b), len(reqLine)); string(b[:k]) != reqLine[:k] {
		return h, -1
	} else if k < len(reqLine) {
		return h, 0
	}
	var hosts, lengths, conns int
	for i := len(reqLine); ; {
		eol := bytes.IndexByte(b[i:], '\n')
		if eol < 0 {
			return h, 0
		}
		line := b[i : i+eol]
		i += eol + 1
		if len(line) == 0 || line[len(line)-1] != '\r' {
			return h, -1
		}
		line = line[:len(line)-1]
		if len(line) == 0 {
			if hosts != 1 || lengths != 1 || conns > 1 {
				return h, -1
			}
			return h, i
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(name) == 0 || !alnumOr(name, "!#$%&'*+-.^_`|~") { // RFC 9110 tchar
			return h, -1
		}
		value = bytes.Trim(value, " \t")
		for _, c := range value {
			if c < ' ' && c != '\t' || c == 0x7f {
				return h, -1
			}
		}
		switch {
		case bytes.EqualFold(name, []byte("Host")):
			hosts++
			if len(value) == 0 || !alnumOr(value, ".-_:[]") { // a name or address, a port
				return h, -1
			}
		case bytes.EqualFold(name, []byte("Content-Length")):
			lengths++
			if len(value) == 0 || len(value) > 7 {
				return h, -1
			}
			for _, c := range value {
				if c < '0' || c > '9' {
					return h, -1
				}
				h.length = h.length*10 + int(c-'0')
			}
			if h.length > maxTxnBody {
				return h, -1
			}
		case bytes.EqualFold(name, []byte("Connection")):
			conns++
			h.close = bytes.EqualFold(value, []byte("close"))
			if !h.close && !bytes.EqualFold(value, []byte("keep-alive")) {
				return h, -1
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")), bytes.EqualFold(name, []byte("Expect")):
			return h, -1
		}
	}
}

// alnumOr reports whether every byte of b is an ASCII letter or digit or
// one of extra.
func alnumOr(b []byte, extra string) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte(extra, c) >= 0) {
			return false
		}
	}
	return true
}
