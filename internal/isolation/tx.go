package isolation

import (
	"errors"

	"sdnshield/internal/controller"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
)

// switchGone reports an error meaning the target switch no longer has a
// session: its rules died with it, so there is no state left to revert.
// Rollback treats these as success rather than failing the whole undo.
func switchGone(err error) bool {
	return errors.Is(err, controller.ErrUnknownSwitch) ||
		errors.Is(err, controller.ErrSwitchDisconnected)
}

// Tx is an atomic group of flow operations. Build it with the fluent
// Insert/Delete methods and Commit once; the entire group executes only
// if every call passes permission checking, and a mid-apply failure rolls
// back the already-applied prefix: every shadow table ends with the rules,
// owners and actions it started with. A reinstalled rule goes to the end
// of its priority run, as it does on the switch.
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
	inner  permengine.Tx
	corr   uint64
}

// plan adds one call, minting the transaction's correlation ID on the
// first: the inner transaction's commit/abort/rollback audit events, the
// prechecks and the undo all carry it, so a tx abort and the denial that
// caused it correlate. The precheck is op's decision on in; the monolith
// has none.
func (t *Tx) plan(op *mediatedOp, in args, apply, revert func() error) *Tx {
	if t.corr == 0 {
		t.corr = audit.NextCorr()
		t.inner.SetOrigin(t.api.AppName(), t.corr)
	}
	var check func() error
	if t.shield != nil {
		check = func() error { return t.shield.precheck(op, in, t.corr) }
	}
	t.inner.Add(permengine.PlannedCall{Check: check, Apply: apply, Revert: revert})
	return t
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

// Len returns the number of planned calls.
func (t *Tx) Len() int { return t.inner.Len() }

// Commit checks all calls, then applies them atomically.
func (t *Tx) Commit() error { return t.inner.Commit() }
