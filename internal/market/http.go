package market

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
)

// ErrBadRequest classifies malformed client input (unparseable digests,
// missing query parameters) so writeError maps it to 400 instead of a
// bare 500.
var ErrBadRequest = errors.New("market: bad request")

// MountHTTP registers the market's administrative surface on the obs
// introspection endpoint (obs handlers built after this call include
// the routes):
//
//	GET  /market/apps            app states, releases, verdicts
//	POST /market/install         body: signed release package JSON, or
//	                             {"digest": "..."} for a stored release
//	POST /market/approve         body: {"app": "..."}
//	POST /market/upgrade         body: package JSON or {"digest": "..."}
//	POST /market/revoke          body: {"app": "..."}
//	POST /market/recompute       body: {"app": "..."} ("" sweeps all)
//	GET  /market/diff?app=NAME[&from=DIGEST&to=DIGEST]
//	GET  /market/jobs            queue stats + recent jobs
//	GET  /market/jobs/<id>       one job's state, result, error
//	GET  /market/log?after=N     release log suffix (replication feed)
//	GET  /market/release?digest=D  one signed package by content address
//	GET  /market/keys            trusted vendor keys, hex
//	GET  /market/digests         sorted digest set + root (anti-entropy)
//	GET  /market/lease           leader lease view (404 if none)
//
// install and upgrade accept the full package (submit + pipeline in one
// round trip), so a vendor portal can POST the exact artifact it
// distributes; provenance is re-checked server-side. A digest-only body
// selects a release already in the registry (e.g. loaded from the
// on-disk store), which is the administrator's usual path.
//
// With a job manager attached (AttachJobs), install/upgrade/recompute
// stop running the pipeline inline: they enqueue durably and answer 202
// Accepted with the job ID to poll at /market/jobs/<id>. A full queue
// answers 429. Without a manager the old synchronous behavior stands.
func MountHTTP(m *Market) {
	for pattern, h := range Routes(m) {
		obs.RegisterHandler(pattern, h)
	}
}

// Routes builds the market's administrative surface as a pattern →
// handler map — the same routes MountHTTP registers globally, but
// reusable by multi-tenant managers that serve one market per tenant
// under a /t/<tenant> prefix. Handlers parse their own r.URL.Path with
// the /market/... prefix intact, so a scoped dispatcher must strip only
// the tenant prefix.
func Routes(m *Market) map[string]http.Handler {
	return map[string]http.Handler{
		"/market/apps": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, m.Snapshot())
		}),
		"/market/install": handlePackage(m, &installOp, QueueInstall),
		"/market/upgrade": handlePackage(m, &upgradeOp, QueueUpgrade),
		"/market/approve": handleApp(m, func(app string) (interface{}, error) {
			return m.Approve(app)
		}),
		"/market/revoke": handleApp(m, func(app string) (interface{}, error) {
			if err := m.Revoke(app); err != nil {
				return nil, err
			}
			snap, _ := m.Status(app)
			return snap, nil
		}),
		"/market/recompute": handleRecompute(m),
		"/market/diff":      handleDiff(m),
		"/market/jobs":      handleJobsIndex(m),
		"/market/jobs/":     handleJobByID(m),
		"/market/log":       handleLog(m),
		"/market/release":   handleRelease(m),
		"/market/keys":      handleKeys(m),
		"/market/digests":   handleDigests(m),
		"/market/lease":     handleLease(m),
	}
}

// MountSyncHTTP registers a follower's sync introspection:
//
//	GET /market/sync    cumulative pull/reject/round counters
func MountSyncHTTP(s *Syncer) {
	obs.RegisterHandler("/market/sync", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
}

// jobAccepted is the 202 body for an enqueued pipeline run.
type jobAccepted struct {
	JobID  uint64 `json:"job_id"`
	Queue  string `json:"queue"`
	Digest string `json:"digest,omitempty"`
	App    string `json:"app,omitempty"`
	Corr   uint64 `json:"corr"`
	Poll   string `json:"poll"`
	Trace  string `json:"trace,omitempty"`
}

// traceFrom establishes the operation identity of one ingress request.
// An X-Sdnshield-Trace header continues the caller's trace — corr is
// the caller's trace ID and the ingress span nests under the caller's
// span — otherwise a fresh corr is minted here and a root span opened.
// sc is what everything downstream (submit audit events, job payloads,
// pipeline stages) nests under; done seals the ingress span when the
// response is written.
func traceFrom(r *http.Request, op string) (corr uint64, sc span.Context, done func()) {
	if pc, ok := span.Parse(r.Header.Get(span.Header)); ok {
		sp := span.Start(pc, op)
		if c := sp.Context(); c.Valid() {
			return pc.TraceID, c, sp.End
		}
		return pc.TraceID, pc, func() {}
	}
	corr = audit.NextCorr()
	root := span.Root(corr, op)
	if c := root.Context(); c.Valid() {
		return corr, c, root.End
	}
	return corr, span.Context{}, func() {}
}

// tracePath renders the /trace link for a corr so 202 bodies can point
// the poller at the operation's trace directly.
func tracePath(corr uint64) string { return fmt.Sprintf("/trace/%d", corr) }

// handlePackage serves install/upgrade: decode a signed package, submit
// it through the provenance gate, then dispatch the admission. The whole
// request runs under one trace: submission audit events, the enqueue,
// the worker-side pipeline and activation all carry the corr minted (or
// continued) here.
func handlePackage(m *Market, op *admitOp, queue string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST a signed release package"})
			return
		}
		var req struct {
			SignedRelease
			Digest string `json:"digest"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad package JSON: " + err.Error()})
			return
		}
		corr, sc, done := traceFrom(r, "http:"+queue)
		defer done()
		var digest Digest
		if req.Digest != "" {
			// Digest-only body: select a release already in the registry.
			d, err := ParseDigest(req.Digest)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			if _, err := m.Registry().Release(d); err != nil {
				writeError(w, err)
				return
			}
			digest = d
		} else {
			d, err := m.Registry().SubmitTraced(&req.SignedRelease, corr)
			if err != nil {
				writeError(w, err)
				return
			}
			digest = d
		}
		ot := OpTrace{Corr: corr, Span: sc}
		dispatch(w, r, m, queue, JobRequest{Digest: digest.String()}, ot, func() (interface{}, error) {
			result, err := m.admit(op, digest, ot)
			if result == nil {
				return nil, err
			}
			return result, err
		})
	})
}

// dispatch makes the one inline-or-enqueue decision of the market's
// pipelines. With a job manager attached it enqueues req on queue under
// the request's operation identity ot — a zero ot is minted from r here,
// for a request that needs one only as a job — and answers 202 with the
// job to poll. Otherwise it runs the pipeline inline: an error without a
// result is mapped by writeError, an error with one (a rejected verdict
// still carries a useful result body) answers 409, a result 200.
func dispatch(w http.ResponseWriter, r *http.Request, m *Market, queue string, req JobRequest, ot OpTrace, inline func() (interface{}, error)) {
	if m.Jobs() != nil {
		if ot.Corr == 0 {
			var done func()
			ot.Corr, ot.Span, done = traceFrom(r, "http:"+queue)
			defer done()
		}
		id, err := m.SubmitJob(queue, req, ot.Corr, ot.Span)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, jobAccepted{
			JobID: id, Queue: queue, Digest: req.Digest, App: req.App, Corr: ot.Corr,
			Poll: fmt.Sprintf("/market/jobs/%d", id), Trace: tracePath(ot.Corr),
		})
		return
	}
	out, err := inline()
	switch {
	case err != nil && out == nil:
		writeError(w, err)
	case err != nil:
		writeJSON(w, http.StatusConflict, out)
	default:
		writeJSON(w, http.StatusOK, out)
	}
}

// handleApp serves approve/revoke: decode {"app": "..."} and apply.
func handleApp(m *Market, step func(app string) (interface{}, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": `POST {"app": "..."}`})
			return
		}
		var req struct {
			App string `json:"app"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.App == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": `body must be {"app": "..."}`})
			return
		}
		out, err := step(req.App)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// handleRecompute serves verdict recomputation through dispatch. The
// app field is optional; empty sweeps every stored release.
func handleRecompute(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": `POST {"app": "..."} ("" for all)`})
			return
		}
		var req struct {
			App string `json:"app"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request JSON: " + err.Error()})
			return
		}
		dispatch(w, r, m, QueueRecompute, JobRequest{App: req.App}, OpTrace{}, func() (interface{}, error) {
			n, err := m.Recompute(req.App)
			if err != nil {
				return nil, err
			}
			return map[string]int{"recomputed": n}, nil
		})
	})
}

func handleDiff(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		app := r.URL.Query().Get("app")
		fromS, toS := r.URL.Query().Get("from"), r.URL.Query().Get("to")
		var (
			report  string
			entries []DiffEntry
			err     error
		)
		switch {
		case fromS != "" && toS != "":
			var from, to Digest
			if from, err = ParseDigest(fromS); err == nil {
				if to, err = ParseDigest(toS); err == nil {
					report, entries, err = m.DiffReleases(from, to)
				} else {
					err = fmt.Errorf("%w: %v", ErrBadRequest, err)
				}
			} else {
				err = fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		case app != "":
			report, entries, err = m.DiffLatest(app)
		default:
			err = fmt.Errorf("%w: need ?app=NAME or ?from=DIGEST&to=DIGEST", ErrBadRequest)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"report":  report,
			"entries": entries,
		})
	})
}

// handleJobsIndex serves the queue dashboard: per-queue stats plus the
// most recent jobs.
func handleJobsIndex(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jm := m.Jobs()
		if jm == nil {
			writeError(w, ErrNoJobs)
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"queues":         jm.Stats(),
			"recent":         jm.Recent(50),
			"dead_by_tenant": jm.DeadByTenant(),
		})
	})
}

// handleJobByID serves GET /market/jobs/<id> (poll) and POST
// /market/jobs/<id>/requeue (resurrect a dead-letter job).
func handleJobByID(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jm := m.Jobs()
		if jm == nil {
			writeError(w, ErrNoJobs)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/market/jobs/")
		idS, action, _ := strings.Cut(rest, "/")
		id, err := strconv.ParseUint(idS, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad job ID %q", idS)})
			return
		}
		switch {
		case action == "" && r.Method == http.MethodGet:
			snap, ok := jm.Status(id)
			if !ok {
				writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %d (completed jobs are retained up to a bound)", id)})
				return
			}
			writeJSON(w, http.StatusOK, snap)
		case action == "requeue" && r.Method == http.MethodPost:
			if err := jm.Requeue(id); err != nil {
				writeError(w, err)
				return
			}
			snap, _ := jm.Status(id)
			writeJSON(w, http.StatusOK, snap)
		default:
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET /market/jobs/<id> or POST /market/jobs/<id>/requeue"})
		}
	})
}

// handleLog serves the release-log suffix after ?after=N — the
// replication feed. Side-effect free: serving reads must not renew the
// lease, or any poller would keep a dead leader's lease alive forever.
func handleLog(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A syncing follower sends its trace context; record the serve
		// side so a cross-node pull shows up on both nodes' collectors.
		if pc, ok := span.Parse(r.Header.Get(span.Header)); ok {
			sp := span.Start(pc, "serve:log")
			defer sp.End()
		}
		var after uint64
		if s := r.URL.Query().Get("after"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad after=%q", s)})
				return
			}
			after = v
		}
		max := 0
		if s := r.URL.Query().Get("max"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad max=%q", s)})
				return
			}
			max = v
		}
		entries := m.Registry().LogAfter(after, max)
		if entries == nil {
			entries = []LogEntry{}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"last_seq": m.Registry().LastSeq(),
			"entries":  entries,
		})
	})
}

// handleRelease serves one signed package by content address.
func handleRelease(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if pc, ok := span.Parse(r.Header.Get(span.Header)); ok {
			sp := span.Start(pc, "serve:release")
			defer sp.End()
		}
		dS := r.URL.Query().Get("digest")
		if dS == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "need ?digest=DIGEST"})
			return
		}
		d, err := ParseDigest(dS)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		sr, err := m.Registry().Release(d)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sr)
	})
}

// handleKeys serves the trusted vendor key set, hex-encoded — what a
// replica imports with TrustUpstreamKeys.
func handleKeys(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg := m.Registry()
		out := make(map[string]string)
		for _, v := range reg.Vendors() {
			if pub, ok := reg.VendorKey(v); ok {
				out[v] = hex.EncodeToString(pub)
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// handleDigests serves the sorted digest set and its root — one GET
// tells a federating peer whether anything diverged.
func handleDigests(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg := m.Registry()
		digests := reg.Digests()
		if digests == nil {
			digests = []string{}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"root":    reg.RootDigest(),
			"digests": digests,
		})
	})
}

// handleLease serves the leader lease view without renewing it (renewal
// is the leader's own heartbeat, not a read side effect); a market
// without one answers 404 so followers know the feed is unguarded.
func handleLease(m *Market) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l := m.Lease()
		if l == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no leader lease configured"})
			return
		}
		writeJSON(w, http.StatusOK, l.View())
	})
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownVendor), errors.Is(err, ErrBadSignature):
		status = http.StatusForbidden
	case errors.Is(err, ErrUnknownRelease), errors.Is(err, ErrNotInstalled),
		errors.Is(err, ErrNothingPending), errors.Is(err, jobs.ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicateRelease), errors.Is(err, ErrAlreadyInstalled),
		errors.Is(err, ErrNotAnUpgrade), errors.Is(err, ErrRejected):
		status = http.StatusConflict
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, jobs.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrNoJobs), errors.Is(err, jobs.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
