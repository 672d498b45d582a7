// Package audit is SDNShield's forensic event pipeline — the third
// protection level of §VII made operational. Where internal/obs answers
// "how much / how fast", audit answers "which app, through which
// permission check, caused this switch-side effect?": every layer of the
// stack emits typed security events (permission decisions, transaction
// outcomes, app lifecycle transitions, switch session changes,
// reconciliation verdicts, fault injections) into a bounded, asynchronous
// journal, and a correlation ID minted at the mediated-call boundary ties
// a wire-level flow-mod back to the app call and permission decision that
// produced it.
//
// The emit path is built for the mediated-call hot path: producers append
// into striped bounded buffers under per-shard mutexes and never block —
// when a shard is full the event is counted as dropped instead. A single
// drain goroutine merges the shards in sequence order into a queryable
// history ring, feeds registered consumers (the denial-rate anomaly
// detector, the optional JSONL file sink) and wakes /audit/stream
// long-pollers.
//
// Like obs, audit imports nothing from the rest of the repo (only obs
// itself); every other layer imports audit, never the reverse.
package audit

import (
	"sync/atomic"
	"time"
)

// Kind classifies an audit event by the subsystem and action it records.
type Kind string

// Event kinds.
const (
	// KindPermission is a permission-engine decision (allow or deny).
	KindPermission Kind = "permission"
	// KindFlowMod is a flow-table mutation reaching the wire.
	KindFlowMod Kind = "flow_mod"
	// KindPacketOut is a packet injection reaching the wire.
	KindPacketOut Kind = "packet_out"
	// KindTx is an API-call transaction outcome.
	KindTx Kind = "tx"
	// KindApp is an app lifecycle transition (panic/restart/quarantine).
	KindApp Kind = "app_lifecycle"
	// KindSwitch is a switch session transition.
	KindSwitch Kind = "switch"
	// KindReconcile is a policy reconciliation verdict.
	KindReconcile Kind = "reconcile"
	// KindFault is an injected fault from the fault-injection harness.
	KindFault Kind = "fault"
	// KindMarket is an app-market lifecycle event (submit/install/
	// approve/upgrade/revoke/rollback); Op names the operation.
	KindMarket Kind = "market"
	// KindResource is a per-app resource-accounting event (soft quota
	// breach); Op names the breached budget dimension.
	KindResource Kind = "resource"
	// KindJob is a durable job-queue lifecycle event (enqueue/done/
	// retry/dead); Op names the queue.
	KindJob Kind = "job"
	// KindFederation is a market replication/federation transfer event:
	// a release pulled from an upstream registry and re-verified (or
	// rejected) locally; Op names the sync mode.
	KindFederation Kind = "federation"
	// KindSLO is a service-level objective state transition (an error
	// budget entering or leaving fast burn); Op names the objective.
	KindSLO Kind = "slo"
)

// Verdict is the outcome an event records.
type Verdict string

// Event verdicts, by kind: permission events carry allow/deny; flow_mod
// and packet_out carry sent/send_failed; tx carries
// commit/abort/rollback; app_lifecycle carries panic/restart/quarantine;
// switch carries connect/disconnect/retry_exhausted; reconcile carries
// clean/violation; fault carries injected.
const (
	VerdictAllow          Verdict = "allow"
	VerdictDeny           Verdict = "deny"
	VerdictSent           Verdict = "sent"
	VerdictSendFailed     Verdict = "send_failed"
	VerdictCommit         Verdict = "commit"
	VerdictAbort          Verdict = "abort"
	VerdictRollback       Verdict = "rollback"
	VerdictPanic          Verdict = "panic"
	VerdictRestart        Verdict = "restart"
	VerdictQuarantine     Verdict = "quarantine"
	VerdictConnect        Verdict = "connect"
	VerdictDisconnect     Verdict = "disconnect"
	VerdictRetryExhausted Verdict = "retry_exhausted"
	VerdictClean          Verdict = "clean"
	VerdictViolation      Verdict = "violation"
	VerdictInjected       Verdict = "injected"

	// Market lifecycle verdicts: install/upgrade/approve/revoke record a
	// completed lifecycle transition; reject records a package or verdict
	// refusal; rollback (shared with tx events) records a probation
	// failure reverting to the previous release's permissions.
	VerdictInstall Verdict = "install"
	VerdictUpgrade Verdict = "upgrade"
	VerdictApprove Verdict = "approve"
	VerdictRevoke  Verdict = "revoke"
	VerdictReject  Verdict = "reject"

	// VerdictBreach records a soft resource-quota breach (resource
	// events): the app exceeded a budget its manifest declared.
	VerdictBreach Verdict = "quota_breach"

	// Job lifecycle verdicts: a job was admitted, acked, rescheduled
	// after a failed attempt, or dead-lettered.
	VerdictEnqueue Verdict = "enqueue"
	VerdictDone    Verdict = "done"
	VerdictRetry   Verdict = "retry"
	VerdictDead    Verdict = "dead"

	// VerdictPull records a release admitted from an upstream registry
	// after local re-verification (federation events; rejections use
	// VerdictReject). VerdictPersistFailed records a release that was
	// admitted to the registry but could not be written to the local
	// store — restart durability degraded, admission unaffected.
	VerdictPull          Verdict = "pull"
	VerdictPersistFailed Verdict = "persist_failed"

	// SLO verdicts: an objective's error budget entered fast burn, or
	// recovered from it.
	VerdictSLOBreach  Verdict = "slo_breach"
	VerdictSLORecover Verdict = "slo_recover"
)

// Event is one structured audit record. The journal stamps Seq at emit
// time and, unless the emitter set it, Time when it drains the event
// (one clock read per drained batch, so emitting reads no clock);
// everything else is supplied by the emitting layer. Corr links every event caused by one mediated API call: the
// isolation layer mints it at the call boundary and threads it through
// the permission check down to the wire send, so a flow-mod, its
// permission decision and the originating call share one value.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    Kind      `json:"kind"`
	Verdict Verdict   `json:"verdict,omitempty"`
	// App is the app the event is attributed to ("" for events with no
	// app principal, e.g. switch session transitions).
	App string `json:"app,omitempty"`
	// Corr is the correlation ID of the mediated call that caused the
	// event (0 when the event has no call provenance).
	Corr uint64 `json:"corr,omitempty"`
	// Token is the permission token of permission events.
	Token string `json:"token,omitempty"`
	// Op names the operation (mediated op or flow-mod command).
	Op string `json:"op,omitempty"`
	// DPID is the switch the event touches (0 when none).
	DPID uint64 `json:"dpid,omitempty"`
	// Detail carries the human-oriented specifics: deny reasons,
	// quarantine causes, fault kinds. Allow-path events leave it empty so
	// the hot path never formats strings.
	Detail string `json:"detail,omitempty"`
	// Tenant is the tenant the event is attributed to in multi-tenant
	// deployments. The journal stamps it at emit time when the emitting
	// layer left it empty: first from the App's "tenant/app" namespace
	// prefix, then from the process-wide default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// defaultTenant is the tenant stamped on otherwise-unattributed events,
// for single-tenant processes running under a tenant identity (the CLIs'
// -tenant flag).
var defaultTenant atomic.Value // string

// SetDefaultTenant sets the process-wide tenant stamped on events that
// carry no tenant of their own and whose App has no tenant prefix.
func SetDefaultTenant(t string) { defaultTenant.Store(t) }

// DefaultTenant returns the process-wide default tenant ("" when unset).
func DefaultTenant() string {
	if v, ok := defaultTenant.Load().(string); ok {
		return v
	}
	return ""
}

// corrSeq mints correlation IDs. Process-wide so IDs stay unique across
// shields and kernels running side by side (benchmarks do exactly that).
var corrSeq atomic.Uint64

// NextCorr returns a fresh, nonzero correlation ID. It is a single
// atomic add — cheap enough to mint on every mediated call whether or
// not the journal is enabled.
func NextCorr() uint64 { return corrSeq.Add(1) }

// def is the process-wide journal every instrumented layer emits into,
// started before any init() in importing packages can emit.
var def = func() *Journal {
	j := NewJournal(JournalConfig{})
	j.Start()
	defaultDetector.register(j)
	return j
}()

// Default returns the process-wide journal.
func Default() *Journal { return def }

// Emit appends an event to the process-wide journal (see Journal.Emit).
func Emit(ev Event) { def.Emit(ev) }

// On reports whether the process-wide journal is accepting events.
// Emitting layers use it to skip building Event values entirely (the
// string conversions cost more than the gate).
func On() bool { return def.Enabled() }

// SetEnabled flips the process-wide journal's emit gate and returns the
// previous state. Disabling stops new events; the retained history stays
// queryable.
func SetEnabled(v bool) bool { return def.SetEnabled(v) }
