package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Health providers

// healthProviders maps a component name (e.g. "shield-1") to a callback
// returning its health snapshot. Shields register themselves on
// construction; the endpoint's /health handler pulls every provider at
// request time so the view is always live.
var (
	healthMu        sync.Mutex
	healthProviders = make(map[string]func() interface{})
)

// RegisterHealth installs a named live health provider and returns its
// unregister function. Registering an existing name replaces it.
func RegisterHealth(name string, fn func() interface{}) (unregister func()) {
	healthMu.Lock()
	healthProviders[name] = fn
	healthMu.Unlock()
	return func() {
		healthMu.Lock()
		delete(healthProviders, name)
		healthMu.Unlock()
	}
}

// HealthSnapshots pulls every registered health provider — the same
// live view /health serves — for embedding in diagnostic bundles.
func HealthSnapshots() map[string]interface{} { return healthSnapshot() }

// healthSnapshot pulls every registered provider.
func healthSnapshot() map[string]interface{} {
	healthMu.Lock()
	names := make([]string, 0, len(healthProviders))
	fns := make(map[string]func() interface{}, len(healthProviders))
	for n, fn := range healthProviders {
		names = append(names, n)
		fns[n] = fn
	}
	healthMu.Unlock()
	sort.Strings(names)
	out := make(map[string]interface{}, len(names))
	for _, n := range names {
		out[n] = fns[n]()
	}
	return out
}

// ---------------------------------------------------------------------------
// Extension handlers

// extHandlers lets packages layered above obs (obs/audit's /audit,
// obs/span's /trace and /traces) mount extra routes on every
// introspection endpoint without obs importing them. Handlers registered
// before NewHandler runs are included; the index page lists their
// patterns.
var (
	extMu       sync.Mutex
	extHandlers = make(map[string]http.Handler)
)

// RegisterHandler installs an extension route served by every handler
// built afterwards. Registering an existing pattern replaces it.
func RegisterHandler(pattern string, h http.Handler) {
	extMu.Lock()
	extHandlers[pattern] = h
	extMu.Unlock()
}

func extensionRoutes() map[string]http.Handler {
	extMu.Lock()
	defer extMu.Unlock()
	out := make(map[string]http.Handler, len(extHandlers))
	for p, h := range extHandlers {
		out[p] = h
	}
	return out
}

// ---------------------------------------------------------------------------
// HTTP endpoint

// NewHandler builds the introspection mux over a registry (nil for the
// process default):
//
//	/            — plain-text index of the routes below
//	/metrics     — Prometheus text exposition
//	/metrics.json— JSON snapshot of every series (with exemplars)
//	/health      — per-component health (shield containers, quarantine…)
//	/slo         — SLO objectives and burn rates
//	/debug/pprof — the standard Go profiler surface
//
// plus every extension route registered so far.
func NewHandler(reg *Registry) http.Handler {
	if reg == nil {
		reg = Default()
	}
	reg.GaugeFunc("sdnshield_goroutines", "Live goroutines in the controller process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	mux := http.NewServeMux()
	// The index page is generated from the same registrations the mux
	// serves — a route cannot exist without being listed. Extension
	// routes and builtins alike flow through listed().
	var patterns []string
	listed := func(pattern string, h http.Handler) {
		patterns = append(patterns, pattern)
		mux.Handle(pattern, h)
	}
	for p, h := range extensionRoutes() {
		listed(p, h)
	}
	listed("/metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}))
	listed("/metrics.json", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, reg.Snapshot())
	}))
	listed("/health", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, healthSnapshot())
	}))
	listed("/slo", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		e := DefaultSLO()
		if e == nil {
			WriteJSON(w, struct {
				Enabled bool `json:"enabled"`
			}{false})
			return
		}
		st := e.Status()
		if st == nil {
			st = e.Evaluate(time.Now())
		}
		WriteJSON(w, struct {
			Enabled    bool              `json:"enabled"`
			Objectives []ObjectiveStatus `json:"objectives"`
		}{true, st})
	}))
	listed("/debug/pprof/", http.HandlerFunc(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	sort.Strings(patterns)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("sdnshield telemetry\n\n"))
		for _, p := range patterns {
			_, _ = w.Write([]byte(p + "\n"))
		}
	})
	return mux
}

// WriteJSON renders v the way every route of the endpoint does —
// indented, as application/json — extension routes included.
func WriteJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection endpoint on addr (e.g. "127.0.0.1:9090";
// port 0 picks a free port, see Addr). A nil reg is the process default.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewHandler(reg), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the endpoint's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down. The listener is closed here as well as
// through the http.Server, which does not know of it yet when Close
// overtakes the Serve goroutine.
func (s *Server) Close() error {
	err := s.srv.Close()
	_ = s.ln.Close()
	return err
}
