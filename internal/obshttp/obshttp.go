// Package obshttp serves live introspection over HTTP for a running
// cluster's observability hub: Prometheus-scrapeable metrics, the recent
// event trace, and per-site session status. It is deliberately read-only —
// every handler renders hub state and touches no protocol state (a scrape
// only copies the runtime gauges into the hub's levels) — so mounting it on
// a long-running simulation cannot perturb the protocol under observation.
//
// Endpoints:
//
//	/         index listing the endpoints
//	/metrics  Prometheus text exposition of the hub's instruments, plus Go
//	          runtime gauges (goroutines, heap, GC) under the "go" subsystem
//	/trace    recent events, newest last; ?n=K bounds the count (default
//	          100), ?since=S keeps only events with sequence number > S
//	          (for incremental tailing), ?format=json for a JSON array
//	/sites    JSON array of per-site status (up, operational, session)
//
// With Config.Pprof the standard net/http/pprof handlers are mounted at
// /debug/pprof/. The runtime gauges and the profiles read runtime state only,
// so the read-only contract holds.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"siterecovery/internal/obs"
)

// SiteStatus is one site's liveness as reported by /sites.
type SiteStatus struct {
	Site        int    `json:"site"`
	Up          bool   `json:"up"`
	Operational bool   `json:"operational"`
	Session     uint64 `json:"session"`
}

// Config wires a handler to its data sources.
type Config struct {
	// Hub supplies the metrics and the event trace. A nil hub serves the
	// runtime gauges and otherwise empty (but well-formed) responses.
	Hub *obs.Hub
	// Sites supplies the per-site status for /sites; nil serves an empty
	// list. It is called per request, so it should read live state.
	Sites func() []SiteStatus
	// Pprof mounts the standard net/http/pprof handlers at /debug/pprof/
	// so a live cluster node can be profiled without a side port.
	Pprof bool
}

// setRuntimeLevels copies the Go runtime into cluster-scope levels on hub,
// rendered as sr_go_goroutines, sr_go_heap_alloc_bytes, sr_go_heap_objects,
// sr_go_gc_runs and sr_go_gc_pause_total_ns.
func setRuntimeLevels(hub *obs.Hub) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	hub.SetLevel(0, "go", "goroutines", int64(runtime.NumGoroutine()))
	hub.SetLevel(0, "go", "heap_alloc_bytes", int64(ms.HeapAlloc))
	hub.SetLevel(0, "go", "heap_objects", int64(ms.HeapObjects))
	hub.SetLevel(0, "go", "gc_runs", int64(ms.NumGC))
	hub.SetLevel(0, "go", "gc_pause_total_ns", int64(ms.PauseTotalNs))
}

// defaultTraceN bounds /trace responses when the request does not say.
const defaultTraceN = 100

// Handler returns the introspection mux.
func Handler(cfg Config) http.Handler {
	hub := cfg.Hub
	if hub == nil {
		// An empty hub of its own keeps the runtime gauges served.
		hub = obs.NewHub(obs.Options{TraceCapacity: 1})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "siterecovery live introspection\n\n"+
			"/metrics  Prometheus text exposition\n"+
			"/trace    recent events (?n=K, ?since=S, ?format=json)\n"+
			"/sites    per-site session status (JSON)\n")
		if cfg.Pprof {
			fmt.Fprint(w, "/debug/pprof/  Go profiling endpoints\n")
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		setRuntimeLevels(hub)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = hub.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := defaultTraceN
		if arg := r.URL.Query().Get("n"); arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q: want a non-negative integer", arg), http.StatusBadRequest)
				return
			}
			n = v
		}
		events := hub.Tracer().Events()
		if arg := r.URL.Query().Get("since"); arg != "" {
			since, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad since=%q: want a sequence number", arg), http.StatusBadRequest)
				return
			}
			// Sequence numbers are gapless and ascending within the ring, so
			// the cut point is the first event past `since`.
			cut := len(events)
			for i, e := range events {
				if e.Seq > since {
					cut = i
					break
				}
			}
			events = events[cut:]
		}
		if len(events) > n {
			events = events[len(events)-n:]
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if events == nil {
				events = []obs.Event{}
			}
			_ = json.NewEncoder(w).Encode(events)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var start time.Time
		if len(events) > 0 {
			start = events[0].At
		}
		for _, e := range events {
			// Event.String carries the sequence number already; prefix the
			// offset from the first shown event.
			fmt.Fprintf(w, "%12s  %s\n", e.At.Sub(start), e.String())
		}
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/sites", func(w http.ResponseWriter, r *http.Request) {
		sites := []SiteStatus{}
		if cfg.Sites != nil {
			sites = append(sites, cfg.Sites()...)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sites)
	})
	return mux
}

// Server is a running introspection listener.
type Server struct {
	srv  *http.Server
	addr string
}

// Start listens on addr (host:port; an empty or ":0" port picks one) and
// serves the introspection handler until Close.
func Start(addr string, cfg Config) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspection listener: %w", err)
	}
	s := &Server{
		srv:  &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second},
		addr: l.Addr().String(),
	}
	go func() { _ = s.srv.Serve(l) }()
	return s, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
