package isolation

import (
	"errors"
	"fmt"

	"sdnshield/internal/controller"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// switchGone reports an error meaning the target switch no longer has a
// session: its rules died with it, so there is no state left to revert.
// Rollback treats these as success rather than failing the whole undo.
func switchGone(err error) bool {
	return errors.Is(err, controller.ErrUnknownSwitch) ||
		errors.Is(err, controller.ErrSwitchDisconnected)
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

// Tx is an atomic group of flow operations (§VI-B2). Build it with the
// fluent Insert/Delete methods and Commit once; the entire group executes
// only if every call passes permission checking, and a mid-apply failure
// rolls back the already-applied prefix: every shadow table ends with the
// rules, owners and actions it started with. A reinstalled rule goes to
// the end of its priority run, as it does on the switch.
//
// Each planned call is its op's: the precheck is the op's own decision
// (ops.go), the apply is the app's own call, and the undo runs on
// the kernel — through the translator for an app behind the virtual big
// switch — unchecked and ungated: putting back the pre-transaction state
// grants nothing new, and a rule it reinstalls goes back to the owner it
// had, not to the caller. Each planned call owns its arguments: the plan
// copies the match, actions and packet it is given, so an app reusing
// them before Commit changes neither what is checked nor what is applied.
type Tx struct {
	api API
	// shield is the handle whose op decisions precheck the calls; nil on
	// the monolith, whose transactions only provide atomic rollback.
	shield *shieldedAPI
	kernel *controller.Kernel
	steps  []step
	corr   uint64
}

// step is one planned call: the op and arguments its precheck decides,
// the app's call, and the undo of that call (nil where there is none).
type step struct {
	op            *mediatedOp
	in            args
	apply, revert func() error
}

// plan adds one call, minting the transaction's correlation ID on the
// first: the commit/abort/rollback audit events, the prechecks and the
// undo all carry it, so a tx abort and the denial that caused it
// correlate.
func (t *Tx) plan(op *mediatedOp, in args, apply, revert func() error) *Tx {
	if t.corr == 0 {
		t.corr = audit.NextCorr()
	}
	t.steps = append(t.steps, step{op: op, in: in, apply: apply, revert: revert})
	return t
}

// Len returns the number of planned calls.
func (t *Tx) Len() int { return len(t.steps) }

// Commit checks every call first, then applies them in order. A check
// failure aborts before any effect; an apply failure rolls back the
// already-applied prefix in reverse order and reports a *TxError so the
// app learns the reason for the failed call (§VI-B2).
func (t *Tx) Commit() error {
	for i, s := range t.steps {
		if t.shield == nil {
			break // the monolith checks nothing
		}
		if err := t.shield.precheck(s.op, s.in, t.corr); err != nil {
			mTxAborts.Inc()
			t.audit(audit.VerdictAbort, fmt.Sprintf("call %d check: %v", i, err))
			return &TxError{Index: i, Stage: "check", Cause: err}
		}
	}
	for i, s := range t.steps {
		if err := s.apply(); err != nil {
			mTxRollbacks.Inc()
			txErr := &TxError{Index: i, Stage: "apply", Cause: err}
			for j := i - 1; j >= 0; j-- {
				if revert := t.steps[j].revert; revert != nil {
					if rerr := revert(); rerr != nil {
						mTxRollbackErrors.Inc()
						txErr.RollbackErrors = append(txErr.RollbackErrors, rerr)
					}
				}
			}
			t.audit(audit.VerdictRollback, fmt.Sprintf("call %d apply: %v (%d rollback errors)",
				i, err, len(txErr.RollbackErrors)))
			return txErr
		}
	}
	mTxCommits.Inc()
	t.audit(audit.VerdictCommit, fmt.Sprintf("%d calls", len(t.steps)))
	return nil
}

// audit records a transaction outcome in the forensic journal, under the
// app and corr of its first planned call; an empty transaction has
// neither.
func (t *Tx) audit(v audit.Verdict, detail string) {
	if !audit.On() {
		return
	}
	ev := audit.Event{Kind: audit.KindTx, Verdict: v, Corr: t.corr, Detail: detail}
	if len(t.steps) > 0 {
		ev.App = t.api.AppName()
	}
	audit.Emit(ev)
}

// resident is the rollback log's snapshot: the rules a call is about to
// displace, as the shadow table holds them. It is empty where the kernel
// knows no such switch, which includes the virtual big switch.
func (t *Tx) resident(dpid of.DPID, match *of.Match) []*flowtable.Entry {
	entries, _ := t.kernel.Flows(dpid, match)
	return entries
}

// restore reinstalls logged rules under the owners they had; a switch
// that is gone took its rules with it, which ends the undo for that
// switch without an error.
func (t *Tx) restore(dpid of.DPID, entries []*flowtable.Entry) error {
	for _, e := range entries {
		spec := controller.FlowSpec{Match: e.Match, Priority: e.Priority, Actions: e.Actions,
			IdleTimeout: e.IdleTimeout, HardTimeout: e.HardTimeout, Cookie: e.Cookie}
		if err := t.kernel.InsertFlowAs(controller.Origin{App: e.Owner, Corr: t.corr}, dpid, spec); err != nil {
			if switchGone(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

// exactRule narrows a snapshot to the rule with exactly this match and
// priority: the one an insert replaces or a strict delete removes.
func exactRule(entries []*flowtable.Entry, match *of.Match, priority uint16) []*flowtable.Entry {
	for i, e := range entries {
		if e.Priority == priority && e.Match.Equal(match) {
			return entries[i : i+1]
		}
	}
	return nil
}

// InsertFlow plans a flow insertion. On rollback the rule it replaced is
// reinstalled, or the new one removed.
func (t *Tx) InsertFlow(dpid of.DPID, spec controller.FlowSpec) *Tx {
	spec.Match, spec.Actions = orAny(spec.Match).Clone(), of.CloneActions(spec.Actions)
	var displaced []*flowtable.Entry // the rule this insert replaces, if any
	return t.plan(opInsertFlow, args{dpid: dpid, spec: spec}, func() error {
		displaced = exactRule(t.resident(dpid, spec.Match), spec.Match, spec.Priority)
		return t.api.InsertFlow(dpid, spec)
	}, func() error {
		if len(displaced) > 0 {
			return t.restore(dpid, displaced)
		}
		org := controller.Origin{App: t.api.AppName(), Corr: t.corr}
		var err error
		var virt *translator // the app's view now; the monolith has none
		if t.shield != nil {
			virt = t.shield.container.virt.Load()
		}
		if virt != nil {
			err = virt.deleteFlow(org, spec.Match, spec.Priority, true)
		} else {
			err = t.kernel.DeleteFlowAs(org, dpid, spec.Match, spec.Priority, true)
		}
		if switchGone(err) {
			return nil
		}
		return err
	})
}

// DeleteFlow plans a flow deletion. On rollback the removed rules are
// reinstalled under the owners they had.
func (t *Tx) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) *Tx {
	match = orAny(match).Clone()
	var removed []*flowtable.Entry
	in := args{dpid: dpid, spec: controller.FlowSpec{Match: match, Priority: priority}, strict: strict}
	return t.plan(opDeleteFlow, in, func() error {
		// The rules match subsumes are what a non-strict delete removes;
		// a strict one removes the equal rule among them.
		removed = t.resident(dpid, match)
		if strict {
			removed = exactRule(removed, match, priority)
		}
		return t.api.DeleteFlow(dpid, match, priority, strict)
	}, func() error { return t.restore(dpid, removed) })
}

// SendPacketOut plans a packet injection. Packet-outs cannot be undone;
// place them last so a rollback never needs to revert one.
func (t *Tx) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) *Tx {
	actions, pkt = of.CloneActions(actions), pkt.Clone()
	in := args{dpid: dpid, bufferID: bufferID, port: inPort, spec: controller.FlowSpec{Actions: actions}, pkt: pkt}
	return t.plan(opPacketOut, in, func() error { return t.api.SendPacketOut(dpid, bufferID, inPort, actions, pkt) }, nil)
}
