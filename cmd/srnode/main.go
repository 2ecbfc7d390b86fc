// Command srnode runs ONE site of the replicated database as a real OS
// process, speaking the length-prefixed TCP protocol of
// internal/transport/tcpnet to its peers. A cluster is a set of srnode
// processes sharing the same -peers map; each exposes an HTTP control
// surface for driving transactions and the crash/recover cycle.
//
// Usage:
//
//	srnode -site 1 -peers '1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103' \
//	       -items x,y,z -control 127.0.0.1:8101
//
// Control endpoints:
//
//	GET  /status          {"site":1,"up":true,"operational":true,"session":2,"prepared":0}
//	POST /exec?item=x&value=7   run a read-write txn writing value to item
//	POST /txn             run a JSON read/write transaction (load.TxnRequest)
//	GET  /read?item=x     read item through a user transaction
//	GET  /ns              this site's committed nominal-session vector
//	POST /crash           fail-stop this site (volatile state lost)
//	POST /recover         run the paper's recovery; returns the report
//	POST /flush           flush the -export JSONL sink to disk
//	GET  /metrics         Prometheus exposition incl. Go runtime gauges
//	GET  /trace           recent events (?n=K, ?since=S, ?format=json)
//	GET  /debug/pprof/    Go profiling endpoints
//
// The control port speaks HTTP/1.1, but POST /txn in the form HTTP clients
// send it — the request line POST /txn HTTP/1.1, one Host, one Content-Length
// of at most 1 MiB, no Transfer-Encoding or Expect, a head that fits in 4 KiB
// — is answered by a request loop of srnode's own (control.go), with the
// bytes net/http would send but for the Date. The first request outside
// that subset hands its connection, and every byte already read from it, to
// net/http for good. One difference: the loop does not watch the socket
// while a transaction runs, so a client that disconnects does not cancel it;
// the 30 s budget and the lock timeouts still bound it, and the client is as
// uncertain of the outcome as after a lost reply.
//
// POST /exec and POST /txn answer when the commit decision is durable at this
// site; the other sites install asynchronously, under the exclusive locks
// they have held since they voted, so a transaction anywhere still reads the
// new values. The loop answers POST /txn at the commit point itself — right
// after the decision record, or after a read-only transaction's last read —
// and then, before it reads the connection's next request, posts the
// decision, installs this site's copies and releases the read locks; so
// with its reply in hand a client may find this site's install still to
// come as well. Only a non-transactional peek (GET /storage?item=) can see a
// copy the decision has not reached yet, and only past a bound: the peek
// first waits, at most 100 ms, for the item's lock, which a site that voted
// holds until the decision lands, and its wait asks the other sites for
// the decision. "prepared" in GET /status, and sr_dm_prepared in GET
// /metrics, count the transactions a site has voted on and not yet learned
// the outcome of, and are 0 once it has caught up.
//
// With -export PATH the node writes its event stream (including the RPC
// span events the TCP transport records) as JSONL; merge the per-site files
// with `srtrace -merge` into one causally ordered cluster timeline.
//
// Items named with -items are fully replicated across all sites. With the
// default -store=mem storage is in-memory, so /crash models the fail-stop
// crash in-process (peers see ErrSiteDown on every call) while the "stable"
// storage and WAL survive for /recover — see internal/node.
//
// Two flags extend the crash model to real process death. With -statedir
// the 2PC log, which also carries the §3.1 session counter, lives in
// statedir/wal.jsonl (wal.Open), so a SIGKILLed process can be relaunched
// over the same directory without violating the uniqueness of session
// numbers or forgetting commit decisions. Data pages are deliberately not
// persisted with -store=mem: they are the paper's out-of-date copies,
// rebuilt from live peers by the copiers. The relaunch must pass
// -start-down: a restarted site is a DOWN site — it serves ErrSiteDown to
// peers until POST /recover runs the paper's recovery procedure, exactly
// like an in-process crash. A statedir write or sync error fail-stops the
// process (exit status 1): a site that cannot make its votes durable must
// not keep voting.
//
// -store=disk (requires -statedir) swaps in the heap-page engine of
// internal/storage/disk: committed copies live on slotted pages in
// statedir/heap.dat behind a buffer pool (-pool-pages), every install is
// redo-logged to wal.jsonl before the page dirties, and a relaunched
// process replays the redo records at assembly — BEFORE the type-1 claim —
// so committed reads come back from local stable storage and only pages
// that actually changed while the process was dead need a peer (pair with
// -identify versiondiff to skip the redundant transfers). GET /storage
// reports the engine's redo/pool counters and serves ?item=NAME committed
// peeks for the e2e harness.
//
// SRNODE_BUG=reuse-session enables a deliberately broken variant (the
// recovery claim reuses the current session number instead of advancing it)
// used by the chaos harness to prove the trace oracle catches violations.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/lockmgr"
	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/obshttp"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/storage/disk"
	"siterecovery/internal/txn"
	"siterecovery/internal/wal"
)

func main() {
	var (
		site      = flag.Int("site", 1, "this site's ID (1-based)")
		peers     = flag.String("peers", "", "comma-separated site=host:port map for every site, e.g. '1=127.0.0.1:7101,2=127.0.0.1:7102'")
		items     = flag.String("items", "x,y", "comma-separated logical items, fully replicated across all sites")
		control   = flag.String("control", "127.0.0.1:0", "HTTP control listen address")
		identify  = flag.String("identify", "markall", "out-of-date identification: markall|versiondiff|faillock|missinglist")
		store     = flag.String("store", "mem", "storage engine: mem|disk (disk keeps committed pages in -statedir/heap.dat and redo-logs installs)")
		poolPages = flag.Int("pool-pages", 0, "disk engine buffer-pool capacity in pages (0 = default)")
		lock      = flag.String("lock", "timeout", "deadlock policy: timeout|wound (wound-wait resolves cross-site deadlocks without waiting out the lock timeout)")
		exportTo  = flag.String("export", "", "write this site's event stream (JSONL) here; merge per-site files with 'srtrace -merge'")
		statedir  = flag.String("statedir", "", "persist the stable slice (the 2PC log and its session counter) here so a SIGKILLed process restarts correctly")
		startDown = flag.Bool("start-down", false, "assemble in the crashed state: serve ErrSiteDown to peers until POST /recover (a restarted-after-SIGKILL process is a down site, not a fresh one)")
		epoch     = flag.Uint64("epoch", 0, "incarnation epoch; pass a distinct value per relaunch of the same site so a respawned process never re-allocates its dead incarnation's span or transaction IDs")
	)
	flag.Parse()
	obs.SeedSpanIDs(*epoch)

	addrs, err := parsePeers(*peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srnode:", err)
		os.Exit(2)
	}
	id := proto.SiteID(*site)
	if _, ok := addrs[id]; !ok {
		fmt.Fprintf(os.Stderr, "srnode: -peers has no entry for -site %d\n", *site)
		os.Exit(2)
	}

	ident, err := recovery.ParseIdentify(*identify)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srnode:", err)
		os.Exit(2)
	}

	all := make([]proto.SiteID, 0, len(addrs))
	for j := range addrs {
		all = append(all, j)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	placement := map[proto.Item][]proto.SiteID{}
	for _, it := range strings.Split(*items, ",") {
		it = strings.TrimSpace(it)
		if it != "" {
			placement[proto.Item(it)] = all
		}
	}

	var policy lockmgr.Policy
	switch *lock {
	case "timeout":
		policy = lockmgr.PolicyTimeout
	case "wound":
		policy = lockmgr.PolicyWoundWait
	default:
		fmt.Fprintf(os.Stderr, "srnode: unknown -lock %q: want timeout|wound\n", *lock)
		os.Exit(2)
	}
	var sinks []obs.Sink
	var exporter *export.JSONL
	if *exportTo != "" {
		exporter, err = export.Create(*exportTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "srnode:", err)
			os.Exit(1)
		}
		defer exporter.Close()
		sinks = append(sinks, exporter)
	}
	hub := obs.NewHub(obs.Options{Sinks: sinks})

	cfg := node.Config{
		SiteConfig: node.SiteConfig{
			Site:       id,
			Profile:    replication.ROWAA,
			Identify:   ident,
			LockPolicy: policy,
			Obs:        hub,
			StartDown:  *startDown,
			// SRNODE_BUG selects a deliberately broken protocol variant so
			// the chaos harness can prove its oracle catches real violations.
			ReuseSessionBug: os.Getenv("SRNODE_BUG") == "reuse-session",
		},
		Sites:     len(addrs),
		Addrs:     addrs,
		Placement: placement,
		Epoch:     *epoch,
	}
	if *statedir != "" {
		cfg.Log, err = wal.Open(*statedir, func(err error) {
			fmt.Fprintf(os.Stderr, "srnode: statedir wal persist failed, site fail-stops: %v\n", err)
			os.Exit(1)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "srnode: statedir:", err)
			os.Exit(1)
		}
	}
	switch *store {
	case "mem":
		// storage.MemFactory is the node default.
	case "disk":
		if *statedir == "" {
			fmt.Fprintln(os.Stderr, "srnode: -store=disk requires -statedir (the heap file lives beside wal.jsonl)")
			os.Exit(2)
		}
		cfg.Engine = disk.Factory(*statedir, *poolPages)
	default:
		fmt.Fprintf(os.Stderr, "srnode: unknown -store %q: want mem|disk\n", *store)
		os.Exit(2)
	}

	n, err := node.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srnode:", err)
		os.Exit(1)
	}
	if err := n.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "srnode:", err)
		os.Exit(1)
	}
	defer n.Stop()

	newTxn := txnEndpoint(n.Exec, n.Catalog)
	srv := &http.Server{Handler: controlMux(id, n, hub, exporter, newTxn)}
	ln, err := net.Listen("tcp", *control)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srnode:", err)
		os.Exit(1)
	}
	fmt.Printf("srnode: site %d serving peers on %s, control on %s\n", id, addrs[id], *control)
	if err := serveControl(ln, srv, newTxn); err != nil {
		fmt.Fprintln(os.Stderr, "srnode:", err)
		os.Exit(1)
	}
}

func parsePeers(spec string) (map[proto.SiteID]string, error) {
	addrs := map[proto.SiteID]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("peer %q: want site=host:port", part)
		}
		sid, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil || sid < 1 {
			return nil, fmt.Errorf("peer %q: bad site ID", part)
		}
		addrs[proto.SiteID(sid)] = strings.TrimSpace(kv[1])
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-peers is required")
	}
	return addrs, nil
}

func controlMux(id proto.SiteID, n *node.Node, hub *obs.Hub, exporter *export.JSONL, newTxn func() txnFunc) *http.ServeMux {
	mux := http.NewServeMux()

	// Introspection rides on the control port: /metrics (with Go runtime
	// gauges), /trace, /sites, and the pprof endpoints. The obshttp mux
	// serves "/" too, but the explicit control routes below take precedence
	// for their exact paths.
	intro := obshttp.Handler(obshttp.Config{
		Hub:   hub,
		Pprof: true,
		Sites: func() []obshttp.SiteStatus {
			return []obshttp.SiteStatus{{
				Site:        int(id),
				Up:          n.Up(),
				Operational: n.Operational(),
				Session:     uint64(n.DM.Session()),
			}}
		},
	})
	// Levels read off the site at scrape time.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		hub.SetLevel(id, "dm", "prepared", int64(n.DM.Prepared()))
		hub.SetLevel(id, "wal", "decisions", int64(n.Log.Decisions()))
		intro.ServeHTTP(w, r)
	})
	mux.Handle("GET /trace", intro)
	mux.Handle("GET /sites", intro)
	mux.Handle("GET /debug/pprof/", intro)
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	writeReply := func(w http.ResponseWriter, status int, reply []byte) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(reply)
	}

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"site":        id,
			"up":          n.Up(),
			"operational": n.Operational(),
			"session":     n.DM.Session(),
			"prepared":    n.DM.Prepared(),
		})
	})

	mux.HandleFunc("POST /exec", func(w http.ResponseWriter, r *http.Request) {
		item := proto.Item(r.URL.Query().Get("item"))
		value, err := strconv.ParseInt(r.URL.Query().Get("value"), 10, 64)
		if item == "" || err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "want ?item=NAME&value=INT"})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		defer cancel()
		// Read-then-write: exercises both the read-one and write-all paths.
		err = n.Exec(ctx, func(ctx context.Context, tx *txn.Tx) error {
			if _, err := tx.Read(ctx, item); err != nil {
				return err
			}
			return tx.Write(ctx, item, proto.Value(value))
		})
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
			return
		}
		writeReply(w, http.StatusOK, committedReply)
	})

	// POST /txn runs an arbitrary read/write transaction from a JSON body
	// (load.TxnRequest): all reads, then all writes, one atomic commit.
	// This is the srload driving surface — /exec only covers the fixed
	// read-then-write shape. Most requests never get here: serveFast answers
	// the ones in its subset, through the same newTxn.
	bodies := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	mux.HandleFunc("POST /txn", func(w http.ResponseWriter, r *http.Request) {
		body := bodies.Get().(*bytes.Buffer)
		defer bodies.Put(body)
		body.Reset()
		if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxTxnBody)); err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, map[string]any{"error": "bad JSON body: " + err.Error()})
			return
		}
		status, reply := newTxn()(r.Context(), body.Bytes())
		writeReply(w, status, reply)
	})

	mux.HandleFunc("GET /read", func(w http.ResponseWriter, r *http.Request) {
		item := proto.Item(r.URL.Query().Get("item"))
		if item == "" {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "want ?item=NAME"})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		defer cancel()
		var got proto.Value
		err := n.Exec(ctx, func(ctx context.Context, tx *txn.Tx) error {
			v, err := tx.Read(ctx, item)
			got = v
			return err
		})
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"item": item, "value": got})
	})

	// POST /flush pushes the buffered -export JSONL to disk so external
	// tools (the e2e harness, srtrace -merge) read a complete stream from a
	// still-running node.
	mux.HandleFunc("POST /flush", func(w http.ResponseWriter, r *http.Request) {
		if exporter == nil {
			writeJSON(w, http.StatusOK, map[string]any{"flushed": false})
			return
		}
		if err := exporter.Flush(); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"flushed": true, "events": exporter.Count()})
	})

	// GET /ns reports this site's committed copy of every nominal-session
	// item: {"site":1,"ns":{"1":2,"2":0,...}}. The chaos harness reads it to
	// find type-2 excluded sites (a peer whose committed NS[j] is NoSession
	// considers site j down) and repair them before checking convergence,
	// mirroring what the in-process simulator reads directly off the stores.
	mux.HandleFunc("GET /ns", func(w http.ResponseWriter, r *http.Request) {
		ns := map[string]proto.Session{}
		for _, item := range n.Store.Items() {
			j, ok := proto.IsNSItem(item)
			if !ok {
				continue
			}
			v, _, err := n.Store.Committed(item)
			if err != nil {
				continue
			}
			ns[strconv.Itoa(int(j))] = proto.Session(v)
		}
		writeJSON(w, http.StatusOK, map[string]any{"site": id, "ns": ns})
	})

	// peeks numbers the peeks: each locks under its own ID, counted down
	// from the top of the ID space.
	var peeks atomic.Uint64
	// GET /storage reports the storage engine behind this site. For the
	// disk engine it includes the redo/pool counters, and ?item=NAME peeks
	// at the committed local copy WITHOUT a transaction (no session gate,
	// no unreadable gate): the e2e harness uses it to prove a relaunched
	// -store=disk process rebuilt committed state from local redo before
	// the type-1 claim ever ran. The peek waits out an undecided write on
	// the item first, for at most peekWait (peekLock).
	mux.HandleFunc("GET /storage", func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]any{"site": id, "engine": "mem"}
		if d, ok := n.Store.(*disk.Engine); ok {
			st := d.Stats()
			resp["engine"] = "disk"
			resp["stats"] = st
		}
		if item := proto.Item(r.URL.Query().Get("item")); item != "" {
			defer peekLock(n.Locks, proto.TxnID(math.MaxUint64-peeks.Add(1)), item)()
			v, ver, err := n.Store.Committed(item)
			if err != nil {
				writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
				return
			}
			resp["item"] = item
			resp["value"] = v
			resp["versionCounter"] = ver.Counter
			resp["versionWriter"] = ver.Writer
			resp["unreadable"] = n.Store.IsUnreadable(item)
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /crash", func(w http.ResponseWriter, r *http.Request) {
		n.Crash()
		writeJSON(w, http.StatusOK, map[string]any{"crashed": true})
	})

	mux.HandleFunc("POST /recover", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
		defer cancel()
		// Copier deltas for THIS recovery: dataCopies counts refreshes that
		// actually moved bytes from a peer, versionSkips the ones the
		// version compare proved already current locally. WaitCurrent
		// returns only once the hub's copier counts are settled.
		copies := func() (int64, int64) {
			return hub.Value(id, "copier", "data_copy"), hub.Value(id, "copier", "version_skip")
		}
		copiesBefore, skipsBefore := copies()
		report, err := n.Recover(ctx)
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
			return
		}
		if err := n.WaitCurrent(ctx); err != nil {
			writeJSON(w, http.StatusConflict, map[string]any{"error": "wait current: " + err.Error()})
			return
		}
		copiesAfter, skipsAfter := copies()
		writeJSON(w, http.StatusOK, map[string]any{
			"session":      report.Session,
			"marked":       report.Marked,
			"inDoubt":      report.InDoubt,
			"dataCopies":   copiesAfter - copiesBefore,
			"versionSkips": skipsAfter - skipsBefore,
		})
	})

	return mux
}

// peekWait bounds how long a peek (GET /storage?item=) waits for the item's
// lock: a write whose decision has not landed holds it, and past the bound
// the peek reads the copy as it stands.
const peekWait = 100 * time.Millisecond

// peekLock takes item's shared lock for one peek under id, waiting at most
// peekWait, and returns its release. A peek's id is above every transaction
// ID, so under wound-wait it is the youngest request there is and wounds
// nobody; its wait asks the peers for the decisions it may be waiting on
// (lockmgr.Config.Waiting).
func peekLock(locks *lockmgr.Manager, id proto.TxnID, item proto.Item) (release func()) {
	ctx, cancel := context.WithTimeout(context.Background(), peekWait)
	defer cancel()
	_ = locks.Acquire(ctx, id, string(item), lockmgr.Shared) // past the bound, read the copy as it stands
	return func() { locks.ReleaseAll(id) }
}
