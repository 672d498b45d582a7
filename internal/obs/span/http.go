package span

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"sdnshield/internal/obs"
)

// The span surface mounts onto every obs introspection endpoint via the
// extension-route registry, exactly like the audit journal's /audit:
//
//	/trace          — index of retained traces, newest first
//	/trace/<id>     — one trace's span timeline, sorted by start
//	/traces         — the traced mediated calls among them, newest first
func init() {
	obs.RegisterHandler("/trace", http.HandlerFunc(handleIndex))
	obs.RegisterHandler("/trace/", http.HandlerFunc(handleTrace))
	obs.RegisterHandler("/traces", http.HandlerFunc(handleMediated))
}

// MediatedCall is one element of /traces: a traced mediated call, read
// back from its root span and the stages under it — a view over the
// collector, not a store of its own. ID is the decimal correlation ID, so
// it resolves at /trace/<id> and /audit?corr=<id>.
type MediatedCall struct {
	ID       string        `json:"id"`
	Op       string        `json:"op"`
	Corr     uint64        `json:"corr,omitempty"`
	Tenant   string        `json:"tenant,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    []Stage       `json:"spans"`
}

// Stage is one stage of a mediated call, offset from the call's start so
// the JSON rendering is self-contained.
type Stage struct {
	Name     string        `json:"name"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// maxMediatedListed caps a /traces response.
const maxMediatedListed = 256

// handleMediated serves /traces: each traced mediated call with its
// queue-wait/execution breakdown. ?corr=<id>, ?op=<name> and
// ?tenant=<id> narrow the listing to the call(s) matching an audit
// event, instead of making the operator scan every entry by eye.
func handleMediated(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	corrStr, op, tenant := q.Get("corr"), q.Get("op"), q.Get("tenant")
	var corr uint64
	if corrStr != "" {
		var err error
		if corr, err = strconv.ParseUint(corrStr, 10, 64); err != nil {
			http.Error(w, "bad corr", http.StatusBadRequest)
			return
		}
	}
	calls := []MediatedCall{}
listing:
	for _, ti := range def.TraceIDs() {
		if (corrStr != "" && ti.TraceID != corr) || (tenant != "" && ti.Tenant != tenant) {
			continue
		}
		spans := def.Trace(ti.TraceID)
		for _, root := range spans {
			name, mediated := strings.CutPrefix(root.Name, mediatedPrefix)
			if !mediated || root.Parent != 0 || (op != "" && name != op) {
				continue
			}
			c := MediatedCall{
				ID: strconv.FormatUint(ti.TraceID, 10), Op: name, Corr: ti.TraceID, Tenant: ti.Tenant,
				Start: root.Start, Duration: root.Duration, Spans: []Stage{},
			}
			for _, sp := range spans {
				if sp.Parent == root.SpanID {
					c.Spans = append(c.Spans, Stage{sp.Name, sp.Start.Sub(root.Start), sp.Duration})
				}
			}
			if calls = append(calls, c); len(calls) == maxMediatedListed {
				break listing
			}
		}
	}
	obs.WriteJSON(w, calls)
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/trace" {
		http.NotFound(w, r)
		return
	}
	traces := def.TraceIDs()
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		kept := traces[:0:0]
		for _, ti := range traces {
			if ti.Tenant == tenant {
				kept = append(kept, ti)
			}
		}
		traces = kept
	}
	if traces == nil {
		traces = []TraceInfo{}
	}
	obs.WriteJSON(w, struct {
		Traces  []TraceInfo `json:"traces"`
		Dropped uint64      `json:"dropped_spans"`
	}{traces, def.Dropped()})
}

func handleTrace(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/trace/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	spans := def.Trace(id)
	if spans == nil {
		http.Error(w, "trace not found", http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, struct {
		TraceID uint64   `json:"trace_id"`
		Tenant  string   `json:"tenant,omitempty"`
		Spans   []Record `json:"spans"`
	}{id, def.TenantOf(id), spans})
}
