// Package introspect serves a live view into a running scheduler over
// HTTP: the metrics registry in Prometheus text exposition format, the
// tracer's recent-event ring as JSON, a run-information summary with the
// current execution phase, and the standard net/http/pprof profiling
// endpoints — all on one mux, so a single -introspect-addr gives
// dashboards, curl, and profilers the same door. Long stagesim sweeps and
// dynamic runs can be watched while they execute instead of only
// post-mortem.
//
// The server is read-only and purely observational: handlers take
// snapshots of atomic instruments and never block the scheduler. It is
// stdlib-only, like the rest of the obs layer.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"datastaging/internal/obs"
)

// RunInfo summarizes what a process is working on; the CLIs fill it once
// per run. All fields are optional.
type RunInfo struct {
	// Scenario identification.
	Scenario string `json:"scenario,omitempty"`
	Machines int    `json:"machines,omitempty"`
	Links    int    `json:"links,omitempty"`
	Items    int    `json:"items,omitempty"`
	Requests int    `json:"requests,omitempty"`
	// Scheduler is the configured scheduler, e.g. "full_one/C4 at E-U 2".
	Scheduler string `json:"scheduler,omitempty"`
	// Config carries any further key/value configuration worth exposing
	// (weights, parallelism, sweep shape, ...).
	Config map[string]string `json:"config,omitempty"`
}

// Server is the introspection endpoint of one process. A nil *Server is
// disabled: SetPhase and SetRunInfo are no-ops, so callers can thread an
// optional server unconditionally.
type Server struct {
	o *obs.Obs

	mu    sync.Mutex
	info  RunInfo
	phase string
	// phaseFn, when set, formats the phase at /runinfo render time.
	phaseFn func() string
	stats   map[string]string
	live    map[string]func() string
}

// NewServer returns a server exposing the given observability handles
// (o may be nil — endpoints then serve empty documents).
func NewServer(o *obs.Obs) *Server {
	return &Server{o: o}
}

// SetRunInfo replaces the run summary served at /runinfo.
func (s *Server) SetRunInfo(info RunInfo) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.info = info
	s.mu.Unlock()
}

// SetPhase updates the live execution phase ("planning", "sweep 3/44",
// "epoch 17", ...) served at /runinfo.
func (s *Server) SetPhase(phase string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phase, s.phaseFn = phase, nil
	s.mu.Unlock()
}

// SetPhaseFunc is SetPhase for a phase that changes far more often than it
// is read: fn is called only when /runinfo is rendered, so a caller on a
// hot path pays for a closure, not for formatting. fn must be safe to call
// from the serving goroutine.
func (s *Server) SetPhaseFunc(fn func() string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phase, s.phaseFn = "", fn
	s.mu.Unlock()
}

// SetStat publishes one live key/value statistic under "stats" in
// /runinfo — small, frequently-updated facts that don't fit the static
// RunInfo (the admission service uses it for the last epoch's
// incremental-vs-full path and delta sizes).
func (s *Server) SetStat(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stats == nil {
		s.stats = make(map[string]string)
	}
	s.stats[key] = value
	s.mu.Unlock()
}

// SetLiveStat registers a computed statistic: fn is evaluated at /runinfo
// render time and its result appears under "stats" alongside SetStat
// values (which a live stat of the same key shadows). Functions must be
// safe to call from the serving goroutine and should read lock-free
// snapshots; the sharded admission service uses this for per-shard epoch
// counters that change on every flush.
func (s *Server) SetLiveStat(key string, fn func() string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.live == nil {
		s.live = make(map[string]func() string)
	}
	s.live[key] = fn
	s.mu.Unlock()
}

// Handler returns the mux serving every introspection endpoint:
//
//	/metrics       Prometheus text exposition of the metrics registry
//	/events        recent tracer events as JSON (ring, total, dropped)
//	/runinfo       run summary, config, and live phase as JSON
//	/debug/pprof/  standard net/http/pprof profiling endpoints
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	s.Register(mux)
	return mux
}

// Register mounts the introspection endpoints (everything Handler serves
// except the index) onto an existing mux, so daemons with their own API
// surface — stagesvc — expose /metrics, /events, /runinfo, and /debug/pprof
// alongside it on one listener.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/events", s.events)
	mux.HandleFunc("/runinfo", s.runinfo)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start listens on addr and serves the introspection endpoints in the
// background until the listener is closed. It returns the bound listener
// so callers can report the actual address (addr may use port 0) and
// close it on shutdown.
func (s *Server) Start(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, s.Handler()) //nolint:errcheck // best-effort debug endpoint
	return ln, nil
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "datastaging introspection\n\n"+
		"/metrics       metrics registry (Prometheus text format)\n"+
		"/events        recent scheduling events (JSON)\n"+
		"/runinfo       scenario, config, live phase (JSON)\n"+
		"/debug/pprof/  profiling\n")
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.o.Snapshot().WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful to do beyond logging territory.
		_ = err
	}
}

// eventsResponse is the /events document.
type eventsResponse struct {
	// Total events emitted over the process lifetime; Dropped of those
	// overwritten out of the ring (visible only via trace.dropped_events_total
	// and here). RingSize is the ring capacity.
	Total    uint64      `json:"total"`
	Dropped  uint64      `json:"dropped"`
	RingSize int         `json:"ringSize"`
	Events   []obs.Event `json:"events"`
}

func (s *Server) events(w http.ResponseWriter, _ *http.Request) {
	var tr *obs.Tracer
	if s.o != nil {
		tr = s.o.Trace()
	}
	resp := eventsResponse{
		Total:    tr.Total(),
		Dropped:  tr.Dropped(),
		RingSize: tr.RingSize(),
		Events:   tr.Recent(),
	}
	if resp.Events == nil {
		resp.Events = []obs.Event{}
	}
	writeJSON(w, resp)
}

// runinfoResponse is the /runinfo document.
type runinfoResponse struct {
	RunInfo
	Phase string            `json:"phase,omitempty"`
	Stats map[string]string `json:"stats,omitempty"`
}

func (s *Server) runinfo(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := runinfoResponse{RunInfo: s.info, Phase: s.phase}
	phaseFn := s.phaseFn
	if len(s.stats)+len(s.live) > 0 {
		resp.Stats = make(map[string]string, len(s.stats)+len(s.live))
		for k, v := range s.stats {
			resp.Stats[k] = v
		}
	}
	live := make(map[string]func() string, len(s.live))
	for k, fn := range s.live {
		live[k] = fn
	}
	s.mu.Unlock()
	// Live stats and the phase are evaluated outside the lock: the
	// functions read their own snapshots and must not be able to deadlock
	// against SetStat.
	if phaseFn != nil {
		resp.Phase = phaseFn()
	}
	for k, fn := range live {
		resp.Stats[k] = fn()
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
