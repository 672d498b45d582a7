package isolation

import (
	"fmt"
	"sort"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

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
// only if every call passes permission checking, and a failure rolls the
// whole group back: every shadow table ends with the rules, owners and
// actions it started with (a reinstalled rule at the end of its priority
// run, as on the switch). The undo is the kernel's (Kernel.Apply),
// unchecked: the pre-transaction state grants nothing new. A planned call
// is a request, which owns its arguments from plan on, so an app reusing
// them before Commit changes neither what is checked nor what is applied.
type Tx struct {
	app    string
	kernel *controller.Kernel
	// shield mediates the commit; nil on the monolith, whose transactions
	// only provide atomic rollback.
	shield *shieldedAPI
	steps  []*request
	corr   uint64
}

// plan adds one call, minting the transaction's correlation ID on the
// first: the commit/abort/rollback audit events, the decisions and the
// kernel's flow-mods all carry it, so a tx abort and the denial that
// caused it correlate.
func (t *Tx) plan(op *mediatedOp, in args) *Tx {
	if t.corr == 0 {
		t.corr = audit.NextCorr()
	}
	t.steps = append(t.steps, t.shield.request(op, in))
	return t
}

// Len returns the number of planned calls.
func (t *Tx) Len() int { return len(t.steps) }

// Commit runs the planned calls as one mediated call of op tx under the
// transaction's corr, each decided by its op's decision (decideTx), and
// on the monolith unchecked. A denial aborts before anything is sent; a
// call that cannot be laid or applied fails the batch, which the kernel
// takes back. Either way the app gets a *TxError naming the failed call
// (§VI-B2).
func (t *Tx) Commit() error {
	if t.shield == nil {
		return t.apply(controller.Origin{App: t.app, Corr: t.corr}, nil, false)
	}
	return t.shield.call(opTx, args{tx: t, corr: t.corr})
}

// apply lays every planned call into one kernel batch under org, behind
// the virtual big switch virt if set, and applies it; if guarded, each
// call's decision guards it on the tables as the earlier calls left them
// (a physical call lays one mutation).
func (t *Tx) apply(org controller.Origin, virt *translator, guarded bool) error {
	var batch []controller.Mutation
	ends := make([]int, len(t.steps)) // one past each call's last mutation
	for i, s := range t.steps {
		var err error
		if batch, err = lay(batch, s.op, &s.args, virt); err != nil {
			return t.rollback(i, err)
		}
		ends[i] = len(batch)
	}
	denied := false
	var guard func(int) error
	if guarded {
		guard = func(i int) error {
			err := t.steps[i].op.decide(t.steps[i])
			denied = err != nil
			return err
		}
	}
	n, err := t.kernel.Apply(org, batch, guard)
	switch {
	case denied:
		return t.abort(n, err)
	case err != nil:
		return t.rollback(sort.Search(len(ends), func(i int) bool { return ends[i] > n }), err)
	}
	mTxCommits.Inc()
	t.audit(audit.VerdictCommit, fmt.Sprintf("%d calls", len(t.steps)))
	return nil
}

// abort reports call i denied: nothing was applied.
func (t *Tx) abort(i int, err error) error {
	mTxAborts.Inc()
	t.audit(audit.VerdictAbort, fmt.Sprintf("call %d check: %v", i, err))
	return &TxError{Index: i, Stage: "check", Cause: err}
}

// rollback reports call i failed to apply, with the undo failures the
// kernel reported.
func (t *Tx) rollback(i int, err error) error {
	mTxRollbacks.Inc()
	txErr := &TxError{Index: i, Stage: "apply", Cause: err}
	if j, ok := err.(interface{ Unwrap() []error }); ok { // the kernel's undo failures
		errs := j.Unwrap()
		txErr.Cause, txErr.RollbackErrors = errs[0], errs[1:]
		for range txErr.RollbackErrors {
			mTxRollbackErrors.Inc()
		}
	}
	t.audit(audit.VerdictRollback, fmt.Sprintf("call %d apply: %v (%d rollback errors)",
		i, txErr.Cause, len(txErr.RollbackErrors)))
	return txErr
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
		ev.App = t.app
	}
	audit.Emit(ev)
}

// InsertFlow plans a flow insertion.
func (t *Tx) InsertFlow(dpid of.DPID, spec controller.FlowSpec) *Tx {
	return t.plan(opInsertFlow, args{dpid: dpid, spec: spec})
}

// DeleteFlow plans a flow deletion.
func (t *Tx) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) *Tx {
	return t.plan(opDeleteFlow, args{dpid: dpid, spec: controller.FlowSpec{Match: match, Priority: priority}, strict: strict})
}

// SendPacketOut plans a packet injection. A packet-out cannot be taken
// back; place it last, so no later failure has one to undo.
func (t *Tx) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) *Tx {
	return t.plan(opPacketOut, args{dpid: dpid, bufferID: bufferID, port: inPort, spec: controller.FlowSpec{Actions: actions}, pkt: pkt})
}
