package market

import (
	"encoding/json"
	"errors"
	"fmt"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs/span"
)

// Market queue names on the job spine. One queue per pipeline step so
// each gets its own worker pool, backlog bound and metrics series.
const (
	// QueueInstall runs the install pipeline (verify → reconcile →
	// activate) for a stored release.
	QueueInstall = "market.install"
	// QueueUpgrade runs the upgrade pipeline (version gate → reconcile →
	// probated activation).
	QueueUpgrade = "market.upgrade"
	// QueueRecompute re-runs reconciliation across stored releases,
	// refreshing the verdict cache.
	QueueRecompute = "market.recompute"
)

// ErrNoJobs reports an async operation on a market with no job manager
// attached.
var ErrNoJobs = errors.New("market: no job manager attached")

// JobRequest is the payload of every market job: the release to drive
// through a pipeline (install/upgrade) or the app to sweep (recompute;
// empty App sweeps the whole registry).
type JobRequest struct {
	Digest string `json:"digest,omitempty"`
	App    string `json:"app,omitempty"`
}

// AttachJobs rides the market's pipelines on a job manager: the three
// market queues get handlers and worker pools, and MountHTTP's
// install/upgrade handlers switch to enqueue-and-202. The manager may
// hold a WAL-replayed backlog; those jobs start executing here.
func (m *Market) AttachJobs(jm *jobs.Manager, workers int) {
	m.mu.Lock()
	m.jobsMgr = jm
	m.mu.Unlock()
	jm.Handle(QueueInstall, workers, m.pipelineHandler(&installOp))
	jm.Handle(QueueUpgrade, workers, m.pipelineHandler(&upgradeOp))
	jm.Handle(QueueRecompute, workers, m.recomputeHandler)
}

// Jobs returns the attached job manager (nil for a synchronous market).
func (m *Market) Jobs() *jobs.Manager {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobsMgr
}

// SubmitJob enqueues one market job, durably, and returns its ID for
// polling at /market/jobs/<id>. corr ties the job's audit trail back to
// the submitting request; sc (may be zero) is the span context the
// worker-side execution continues under — persisted with the job, so
// the trace survives a WAL replay.
func (m *Market) SubmitJob(queue string, req JobRequest, corr uint64, sc span.Context) (uint64, error) {
	jm := m.Jobs()
	if jm == nil {
		return 0, ErrNoJobs
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	return jm.Enqueue(queue, payload,
		jobs.WithCorr(corr), jobs.WithTrace(sc), jobs.WithTenant(m.cfg.Tenant))
}

// pipelineHandler adapts an install/upgrade admission into a job handler:
// decode the request, run the pipeline under the job's operation
// identity (the corr and span context it was enqueued with, by this
// process or a predecessor whose WAL we replayed), retain the
// InstallResult as the job's pollable result. Deterministic refusals
// (unknown release, rejection, version gate) dead-letter immediately;
// anything else burns an attempt and retries.
func (m *Market) pipelineHandler(op *admitOp) jobs.Handler {
	return func(j jobs.Snapshot) ([]byte, error) {
		var req JobRequest
		if err := json.Unmarshal(j.Payload, &req); err != nil {
			return nil, jobs.Permanent(fmt.Errorf("market: bad job payload: %w", err))
		}
		d, err := ParseDigest(req.Digest)
		if err != nil {
			return nil, jobs.Permanent(err)
		}
		res, err := m.admit(op, d, OpTrace{Corr: j.Corr, Span: j.Trace})
		if err != nil {
			return nil, classifyJobErr(err)
		}
		return json.Marshal(res)
	}
}

// recomputeHandler sweeps reconciliation verdicts for one app or the
// whole registry.
func (m *Market) recomputeHandler(j jobs.Snapshot) ([]byte, error) {
	var req JobRequest
	if len(j.Payload) > 0 {
		if err := json.Unmarshal(j.Payload, &req); err != nil {
			return nil, jobs.Permanent(fmt.Errorf("market: bad job payload: %w", err))
		}
	}
	n, err := m.Recompute(req.App)
	if err != nil {
		return nil, classifyJobErr(err)
	}
	return json.Marshal(map[string]int{"recomputed": n})
}

// classifyJobErr marks the market's deterministic refusals Permanent so
// they dead-letter with their reason instead of burning the retry
// budget on an outcome that cannot change.
func classifyJobErr(err error) error {
	switch {
	case errors.Is(err, ErrUnknownRelease), errors.Is(err, ErrRejected),
		errors.Is(err, ErrAlreadyInstalled), errors.Is(err, ErrNotAnUpgrade),
		errors.Is(err, ErrNotInstalled), errors.Is(err, ErrNothingPending),
		errors.Is(err, ErrBadSignature), errors.Is(err, ErrUnknownVendor),
		errors.Is(err, ErrDuplicateRelease):
		return jobs.Permanent(err)
	}
	return err
}
