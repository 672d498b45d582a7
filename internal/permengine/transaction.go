package permengine

import (
	"fmt"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
)

// Transaction instrumentation: commits by outcome, and rollbacks (the
// degradation signal the fault-injection harness watches for).
var (
	mTxCommits = obs.Default().Counter("sdnshield_permengine_tx_commits_total",
		"API-call transactions committed successfully.")
	mTxAborts = obs.Default().Counter("sdnshield_permengine_tx_aborts_total",
		"API-call transactions aborted at check time (no effects applied).")
	mTxRollbacks = obs.Default().Counter("sdnshield_permengine_tx_rollbacks_total",
		"API-call transactions rolled back after a mid-apply failure.")
	mTxRollbackErrors = obs.Default().Counter("sdnshield_permengine_tx_rollback_errors_total",
		"Rollback steps that themselves failed, leaving residual state.")
)

// PlannedCall is one element of an API-call transaction: its permission
// check, its effect and the effect's inverse.
type PlannedCall struct {
	// Check runs the permission check (typically Engine.Check bound to a
	// *core.Call).
	Check func() error
	// Apply executes the call's effect.
	Apply func() error
	// Revert undoes Apply; may be nil for effect-free calls.
	Revert func() error
}

// TxError reports a failed transaction: which call failed, why, and any
// rollback failures (which leave residual state an operator must see).
type TxError struct {
	// Index is the position of the failing call.
	Index int
	// Stage is "check" or "apply".
	Stage string
	// Cause is the underlying failure.
	Cause error
	// RollbackErrors collects failures while undoing applied calls.
	RollbackErrors []error
}

// Error implements error.
func (e *TxError) Error() string {
	s := fmt.Sprintf("transaction failed at call %d (%s): %v", e.Index, e.Stage, e.Cause)
	if len(e.RollbackErrors) > 0 {
		s += fmt.Sprintf(" (%d rollback errors)", len(e.RollbackErrors))
	}
	return s
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *TxError) Unwrap() error { return e.Cause }

// Tx groups semantically related API calls to be issued atomically
// (§VI-B2): the transaction executes only if every call passes permission
// checking, and a mid-apply failure rolls back the applied prefix. The
// zero value is an empty transaction.
type Tx struct {
	calls []PlannedCall
	app   string
	corr  uint64
}

// SetOrigin attributes the transaction's audit events to an app and the
// correlation ID of the mediated call that opened it.
func (t *Tx) SetOrigin(app string, corr uint64) {
	t.app = app
	t.corr = corr
}

// auditTx records a transaction outcome in the forensic journal.
func (t *Tx) auditTx(v audit.Verdict, detail string) {
	if !audit.On() {
		return
	}
	audit.Emit(audit.Event{
		Kind:    audit.KindTx,
		Verdict: v,
		App:     t.app,
		Corr:    t.corr,
		Detail:  detail,
	})
}

// Add appends a planned call.
func (t *Tx) Add(c PlannedCall) *Tx {
	t.calls = append(t.calls, c)
	return t
}

// Len returns the number of planned calls.
func (t *Tx) Len() int { return len(t.calls) }

// Commit checks every call first, then applies them in order. A check
// failure aborts before any effect; an apply failure rolls back the
// already-applied prefix in reverse order and reports a *TxError so the
// app learns the reason for the failed call (§VI-B2).
func (t *Tx) Commit() error {
	for i, c := range t.calls {
		if c.Check == nil {
			continue
		}
		if err := c.Check(); err != nil {
			mTxAborts.Inc()
			t.auditTx(audit.VerdictAbort, fmt.Sprintf("call %d check: %v", i, err))
			return &TxError{Index: i, Stage: "check", Cause: err}
		}
	}
	applied := 0
	for i, c := range t.calls {
		if c.Apply == nil {
			applied++
			continue
		}
		if err := c.Apply(); err != nil {
			mTxRollbacks.Inc()
			txErr := &TxError{Index: i, Stage: "apply", Cause: err}
			for j := applied - 1; j >= 0; j-- {
				if revert := t.calls[j].Revert; revert != nil {
					if rerr := revert(); rerr != nil {
						mTxRollbackErrors.Inc()
						txErr.RollbackErrors = append(txErr.RollbackErrors, rerr)
					}
				}
			}
			t.auditTx(audit.VerdictRollback, fmt.Sprintf("call %d apply: %v (%d rollback errors)",
				i, err, len(txErr.RollbackErrors)))
			return txErr
		}
		applied++
	}
	mTxCommits.Inc()
	t.auditTx(audit.VerdictCommit, fmt.Sprintf("%d calls", len(t.calls)))
	return nil
}
