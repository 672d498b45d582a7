package tenant

import (
	"cmp"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/obs/span"
)

// MountHTTP hangs the tenancy surface off the obs introspection server:
//
//	/t/<tenant>/market/...  the tenant's full market surface
//	/t/<tenant>/audit       the tenant's audit slice
//	/t/<tenant>/trace[/id]  the tenant's span traces
//	/t/<tenant>/apps        the tenant's recorder usage
//	/t/<tenant>/jobs        the tenant's job queues + dead-letter counts
//	/t/<tenant>/            the tenant's snapshot
//	/tenants                admin: list (GET), lifecycle ops (POST)
//	/tenants/shards         admin: per-shard WFQ scheduling telemetry
//
// Every scoped route requires the X-Sdnshield-Tenant header to agree
// with the path (absence is a 401 — the header is the hand-off point
// for a trusted front proxy's authentication, see HeaderTenant) and
// enforces install-path admission before any per-call work happens.
// When Config.AdminToken is set, /tenants and /tenants/shards
// additionally require "Authorization: Bearer <token>".
func MountHTTP(m *Manager) {
	obs.RegisterHandler(PathPrefix, &scopedHandler{m: m})
	obs.RegisterHandler("/tenants", &adminHandler{m: m})
	obs.RegisterHandler("/tenants/shards", &shardsHandler{m: m})
}

// httpStatus maps tenancy errors onto HTTP statuses.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrTenantThrottled):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBadTenantID), errors.Is(err, ErrTenantMismatch):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoTenantHeader), errors.Is(err, ErrNotAdmin):
		return http.StatusUnauthorized
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrTenantExists):
		return http.StatusConflict
	case errors.Is(err, ErrSuspended), errors.Is(err, ErrManagerClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	obs.WriteJSONStatus(w, httpStatus(err), map[string]string{"error": err.Error()})
}

// writeThrottle answers an admission refusal: 429 with a Retry-After
// header (whole seconds, rounded up) and the refusal detail.
func writeThrottle(w http.ResponseWriter, te *ThrottleError) {
	secs := int(math.Ceil(te.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	obs.WriteJSONStatus(w, http.StatusTooManyRequests, map[string]interface{}{
		"error":          "tenant throttled",
		"tenant":         te.Tenant,
		"path":           te.Path,
		"retry_after_ms": te.RetryAfter.Milliseconds(),
	})
}

// installPaths are the scoped routes that spend an install token before
// dispatch — the mutation half of the market surface.
var installPaths = map[string]bool{
	"/market/install":   true,
	"/market/upgrade":   true,
	"/market/recompute": true,
}

// scopedHandler serves /t/<tenant>/... by resolving the tenant (lazily
// hydrating it), enforcing identity and admission, then dispatching the
// remaining path on the tenant's own mux.
type scopedHandler struct {
	m *Manager
}

func (h *scopedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, rest, err := FromRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	t, release, err := h.m.Acquire(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	if t.State() != StateActive {
		w.Header().Set("X-Sdnshield-Tenant-State", string(StateSuspended))
		writeError(w, fmt.Errorf("%w: %s", ErrSuspended, id))
		return
	}

	// Trace ingress. The header is client-controlled, so it may only
	// continue a trace the collector already tags with this tenant —
	// anything else (unknown, untagged, or another tenant's ID) is
	// dropped and replaced with a fresh tenant-tagged root. Inbound IDs
	// never take ownership of a trace and never materialize collector
	// entries, so trace IDs stay unguessable-in-effect even though they
	// are sequential audit correlation values.
	pc, ok := span.Parse(r.Header.Get(span.Header))
	if !ok || span.TenantOf(pc.TraceID) != id {
		r.Header.Del(span.Header)
		if sp := span.Root(audit.NextCorr(), "tenant:"+id); sp != nil {
			sc := sp.Context()
			span.Tag(sc.TraceID, id)
			r.Header.Set(span.Header, sc.String())
			defer sp.End()
		}
	}

	// Install-path admission: hard refusal before the market handler
	// allocates anything.
	if r.Method == http.MethodPost && installPaths[rest] {
		if err := t.AdmitInstall(); err != nil {
			var te *ThrottleError
			if errors.As(err, &te) {
				writeThrottle(w, te)
				return
			}
			writeError(w, err)
			return
		}
	}

	r2 := r.Clone(r.Context())
	r2.URL.Path = rest
	t.handler().ServeHTTP(w, r2)
}

// handler returns the tenant's scoped mux, building it on first use.
func (t *Tenant) handler() http.Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mux == nil {
		t.mux = t.buildMux()
	}
	return t.mux
}

func (t *Tenant) buildMux() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range market.Routes(t.mkt) {
		mux.Handle(pattern, h)
	}
	id := t.ID

	// The tenant's audit slice, filtered as the shared /audit is. The
	// Tenant filter is forced server-side, after parsing, so ?tenant=
	// cannot widen the answer; ?app= matches both the market's plain app
	// names and the runtime's namespaced "tenant/app" form, and ?limit=
	// keeps the most recent of those matches, audit.DefaultLimit by
	// default as on the shared /audit.
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		f, err := audit.ParseFilter(r.URL.Query())
		if err != nil {
			obs.WriteJSONStatus(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		app, limit := f.App, cmp.Or(f.Limit, audit.DefaultLimit)
		f.Tenant, f.App, f.Limit = id, "", 0
		events := audit.Default().Query(f)
		if app != "" {
			scoped := id + "/" + app
			kept := events[:0]
			for _, ev := range events {
				if ev.App == app || ev.App == scoped {
					kept = append(kept, ev)
				}
			}
			events = kept
		}
		if len(events) > limit {
			events = events[len(events)-limit:]
		}
		if events == nil {
			events = []audit.Event{}
		}
		obs.WriteJSONStatus(w, http.StatusOK, map[string]interface{}{
			"tenant": id, "count": len(events), "events": events,
		})
	})

	// The tenant's retained traces.
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		all := span.DefaultCollector().TraceIDs()
		mine := []span.TraceInfo{}
		for _, ti := range all {
			if ti.Tenant == id {
				mine = append(mine, ti)
			}
		}
		obs.WriteJSONStatus(w, http.StatusOK, map[string]interface{}{
			"tenant": id, "count": len(mine), "traces": mine,
		})
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/trace/")
		tid, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || tid == 0 {
			obs.WriteJSONStatus(w, http.StatusBadRequest, map[string]string{"error": "bad trace id"})
			return
		}
		if span.TenantOf(tid) != id {
			// Another tenant's trace (or unknown) is indistinguishable
			// from absent — no cross-tenant existence oracle.
			obs.WriteJSONStatus(w, http.StatusNotFound, map[string]string{"error": "no such trace"})
			return
		}
		obs.WriteJSONStatus(w, http.StatusOK, map[string]interface{}{
			"trace_id": tid, "tenant": id,
			"spans": span.DefaultCollector().Trace(tid),
		})
	})

	// The tenant's recorder usage: the shared /apps surface with the
	// tenant filter forced (the recorder sees namespaced app keys).
	apps := recorder.Apps()
	mux.HandleFunc("/apps", func(w http.ResponseWriter, r *http.Request) {
		r2 := r.Clone(r.Context())
		q := r2.URL.Query()
		q.Set("tenant", id)
		r2.URL.RawQuery = q.Encode()
		apps.ServeHTTP(w, r2)
	})

	// The tenant's job spine: queue stats plus its dead-letter counts.
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSONStatus(w, http.StatusOK, map[string]interface{}{
			"tenant":         id,
			"queues":         t.jm.Stats(),
			"dead_by_tenant": t.jm.DeadByTenant(),
		})
	})

	// The tenant's snapshot at its scoped root.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		obs.WriteJSONStatus(w, http.StatusOK, t.Info())
	})
	return mux
}

// shardsHandler serves /tenants/shards: the WFQ scheduling telemetry —
// per-shard queue depth, backlogged flows, cumulative throughput,
// virtual-time lag, backlog residency — plus the pool-wide imbalance
// gauge. Same bearer gate as /tenants: shard state reveals the shape of
// every tenant's load, so it is admin surface.
type shardsHandler struct {
	m *Manager
}

func (h *shardsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !(&adminHandler{m: h.m}).authorized(r) {
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeError(w, ErrNotAdmin)
		return
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		obs.WriteJSONStatus(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
		return
	}
	obs.WriteJSONStatus(w, http.StatusOK, map[string]interface{}{
		"shards":    h.m.pool.ShardStats(),
		"imbalance": h.m.pool.Imbalance(),
	})
}

// adminHandler serves /tenants: GET lists resident and stored tenants,
// POST drives the lifecycle.
type adminHandler struct {
	m *Manager
}

// adminOp is one POST /tenants request.
type adminOp struct {
	Op        string           `json:"op"` // create|suspend|resume|evict|pin|unpin
	Tenant    string           `json:"tenant"`
	Admission *AdmissionConfig `json:"admission,omitempty"` // create only
}

// authorized checks the admin bearer token when one is configured; an
// empty AdminToken leaves /tenants open (dev mode — see DESIGN.md §16
// for the deployment trust model).
func (h *adminHandler) authorized(r *http.Request) bool {
	tok := h.m.cfg.AdminToken
	if tok == "" {
		return true
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	return subtle.ConstantTimeCompare([]byte(got), []byte(tok)) == 1
}

func (h *adminHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.authorized(r) {
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeError(w, ErrNotAdmin)
		return
	}
	switch r.Method {
	case http.MethodGet:
		stored := h.m.Stored()
		if stored == nil {
			stored = []string{}
		}
		obs.WriteJSONStatus(w, http.StatusOK, map[string]interface{}{
			"resident": h.m.List(),
			"stored":   stored,
		})
	case http.MethodPost:
		var op adminOp
		if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
			obs.WriteJSONStatus(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		var err error
		switch op.Op {
		case "create":
			var t *Tenant
			if op.Admission != nil {
				t, err = h.m.CreateWith(op.Tenant, *op.Admission)
			} else {
				t, err = h.m.Create(op.Tenant)
			}
			if err == nil {
				obs.WriteJSONStatus(w, http.StatusCreated, t.Info())
				return
			}
		case "suspend":
			err = h.m.Suspend(op.Tenant)
		case "resume":
			err = h.m.Resume(op.Tenant)
		case "evict":
			err = h.m.Evict(op.Tenant)
		case "pin":
			err = h.m.Pin(op.Tenant, true)
		case "unpin":
			err = h.m.Pin(op.Tenant, false)
		default:
			obs.WriteJSONStatus(w, http.StatusBadRequest, map[string]string{"error": "unknown op " + strconv.Quote(op.Op)})
			return
		}
		if err != nil {
			writeError(w, err)
			return
		}
		obs.WriteJSONStatus(w, http.StatusOK, map[string]string{"ok": op.Op, "tenant": op.Tenant})
	default:
		w.Header().Set("Allow", "GET, POST")
		obs.WriteJSONStatus(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
	}
}
