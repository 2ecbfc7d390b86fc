package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"siterecovery/internal/load"
	"siterecovery/internal/proto"
)

const (
	numClients = 2
	opsPerTxn  = 4
	// keysPerClient is each client's half of the key space.
	keysPerClient = numItems / numClients
)

// clientKey is the j-th key of client c's half: the indices with
// index mod numClients == c, so the halves never overlap and no two clients
// ever conflict (README.md, "Why disjoint keys").
func clientKey(c, j int) int { return j*numClients + c }

// txnGen draws one client's transactions: 4 distinct uniform keys from the
// client's half, each a read with probability readShare, reads before
// writes. Written values increase, so every write of a run is distinguishable.
type txnGen struct {
	client    int
	readShare float64
	rng       *rand.Rand
	seq       int64
}

func newTxnGen(seed int64, client int, readShare float64) *txnGen {
	return &txnGen{client: client, readShare: readShare, rng: rand.New(rand.NewSource(seed*numClients + int64(client)))}
}

func (g *txnGen) next() load.TxnRequest {
	var req load.TxnRequest
	var picked [opsPerTxn]int
	for i := 0; i < opsPerTxn; {
		j := g.rng.Intn(keysPerClient)
		dup := false
		for _, p := range picked[:i] {
			dup = dup || p == j
		}
		if dup {
			continue
		}
		picked[i] = j
		i++
		item := proto.Item(itemName(clientKey(g.client, j)))
		if g.rng.Float64() < g.readShare {
			req.Reads = append(req.Reads, item)
		} else {
			g.seq++
			req.Writes = append(req.Writes, load.TxnWrite{Item: item, Value: proto.Value(g.seq*numClients + int64(g.client))})
		}
	}
	return req
}

// preloadTxn writes keys [from, from+n) of the generator's half, so every
// copy carries a real version before anything is measured.
func (g *txnGen) preloadTxn(from, n int) load.TxnRequest {
	var req load.TxnRequest
	for j := from; j < from+n; j++ {
		g.seq++
		req.Writes = append(req.Writes, load.TxnWrite{
			Item:  proto.Item(itemName(clientKey(g.client, j))),
			Value: proto.Value(g.seq*numClients + int64(g.client)),
		})
	}
	return req
}

// commit is one acknowledged transaction as the client saw it.
type commit struct {
	end     time.Time
	latency time.Duration
}

// client is one closed-loop load client on one keep-alive connection. It
// remembers the last acknowledged value of every key it wrote: its keys have
// no other writer, so that value is what every replica must hold.
type client struct {
	id   int
	url  string
	http *http.Client
	gen  *txnGen

	last      map[proto.Item]proto.Value
	uncertain map[proto.Item]bool // written by a txn whose outcome is unknown
	attempted int
	failed    int
	firstErr  string
}

func newClient(id int, url string, gen *txnGen) *client {
	return &client{
		id:  id,
		url: url,
		gen: gen,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
		last:      map[proto.Item]proto.Value{},
		uncertain: map[proto.Item]bool{},
	}
}

// do posts one transaction and reports whether srnode acknowledged a commit.
func (c *client) do(req load.TxnRequest) (time.Duration, bool) {
	body, _ := json.Marshal(req) // plain strings and ints cannot fail to encode
	c.attempted++
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	var msg string
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			_, err = io.Copy(io.Discard, resp.Body)
		} else {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			msg = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(b))
		}
		resp.Body.Close()
	}
	lat := time.Since(start)
	if err != nil {
		msg = err.Error()
	}
	if msg != "" {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = msg
		}
		for _, w := range req.Writes {
			c.uncertain[w.Item] = true
		}
		return lat, false
	}
	for _, w := range req.Writes {
		c.last[w.Item] = w.Value
		delete(c.uncertain, w.Item)
	}
	return lat, true
}

// phaseEnd says when a phase's clients stop issuing: at a deadline, after a
// count of transactions per client, or when stop closes. The transaction in
// flight always completes, so a finished phase leaves nothing in doubt.
type phaseEnd struct {
	deadline time.Time
	count    int
	stop     <-chan struct{}
}

func (e phaseEnd) reached(issued int) bool {
	if e.count > 0 && issued >= e.count {
		return true
	}
	if !e.deadline.IsZero() && !time.Now().Before(e.deadline) {
		return true
	}
	if e.stop != nil {
		select {
		case <-e.stop:
			return true
		default:
		}
	}
	return false
}

// phase is the record of one stretch of load: its start and every commit.
type phase struct {
	start   time.Time
	end     time.Time // when the last client drained
	commits []commit
}

// runPhase drives all clients in closed loop until end, then drains them.
func runPhase(clients []*client, end phaseEnd) phase {
	per := make([][]commit, len(clients))
	var wg sync.WaitGroup
	p := phase{start: time.Now()}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for n := 0; !end.reached(n); n++ {
				if lat, ok := c.do(c.gen.next()); ok {
					per[i] = append(per[i], commit{end: time.Now(), latency: lat})
				}
			}
		}(i, c)
	}
	wg.Wait()
	p.end = time.Now()
	for _, cs := range per {
		p.commits = append(p.commits, cs...)
	}
	return p
}

// preload writes every key once, each client its own half, 16 keys a txn.
func preload(clients []*client) error {
	const perTxn = 16
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for from := 0; from < keysPerClient; from += perTxn {
				if _, ok := c.do(c.gen.preloadTxn(from, perTxn)); !ok {
					errs[i] = fmt.Errorf("preload at client %d: %s", c.id, c.firstErr)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
