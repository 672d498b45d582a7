package audit

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sdnshield/internal/obs"
)

// maxStreamWait caps /audit/stream long-poll duration.
const maxStreamWait = 30 * time.Second

// DefaultLimit caps an /audit answer whose query names no ?limit=.
const DefaultLimit = 1000

// Handler serves the journal over HTTP:
//
//	/audit        — retained events as JSON, filterable by ?app=, ?kind=,
//	                ?verdict=, ?corr=, ?tenant=, ?limit=; "source" is
//	                always "journal", the one history there is
//	/audit/stream — long-poll JSONL tail: blocks until events newer than
//	                ?after= (default: now) arrive or ?wait= (seconds,
//	                default 10, max 30) elapses; the X-Audit-Cursor
//	                response header carries the next cursor.
func Handler(j *Journal) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/audit" {
			http.NotFound(w, r)
			return
		}
		f, err := filterFromQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if f.Limit == 0 {
			f.Limit = DefaultLimit
		}
		events := j.Query(f)
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(struct {
			Source  string  `json:"source"`
			Emitted uint64  `json:"emitted"`
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{"journal", j.Emitted(), j.Drops(), events})
	})
	mux.HandleFunc("/audit/stream", func(w http.ResponseWriter, r *http.Request) {
		f, err := filterFromQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if after := r.URL.Query().Get("after"); after != "" {
			v, err := strconv.ParseUint(after, 10, 64)
			if err != nil {
				http.Error(w, "bad after cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.AfterSeq = v
		} else {
			// Default to "from now": tail new events only.
			f.AfterSeq = j.LastSeq()
		}
		wait := 10 * time.Second
		if ws := r.URL.Query().Get("wait"); ws != "" {
			secs, err := strconv.Atoi(ws)
			if err != nil || secs < 0 {
				http.Error(w, "bad wait seconds", http.StatusBadRequest)
				return
			}
			wait = time.Duration(secs) * time.Second
			if wait > maxStreamWait {
				wait = maxStreamWait
			}
		}
		events := j.WaitQuery(f, wait)
		cursor := f.AfterSeq
		if n := len(events); n > 0 {
			cursor = events[n-1].Seq
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Audit-Cursor", strconv.FormatUint(cursor, 10))
		enc := json.NewEncoder(w)
		for _, ev := range events {
			enc.Encode(ev)
		}
	})
	return mux
}

func filterFromQuery(r *http.Request) (Filter, error) {
	q := r.URL.Query()
	f := Filter{
		App:     q.Get("app"),
		Kind:    Kind(q.Get("kind")),
		Verdict: Verdict(q.Get("verdict")),
		Tenant:  q.Get("tenant"),
	}
	if c := q.Get("corr"); c != "" {
		v, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad corr: %v", err)
		}
		f.Corr = v
	}
	if l := q.Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 0 {
			return f, fmt.Errorf("bad limit")
		}
		f.Limit = v
	}
	return f, nil
}

// Mount the default journal's endpoints on every obs handler.
func init() {
	h := Handler(def)
	obs.RegisterHandler("/audit", h)
	obs.RegisterHandler("/audit/stream", h)
}
