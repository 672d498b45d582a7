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

// prechecker is implemented by API variants that can check a call without
// executing it; the transaction uses it to validate every call before the
// first effect (§VI-B2). The monolithic API has no checks, so its
// transactions only provide atomic rollback.
type prechecker interface {
	checkInsertFlow(corr uint64, dpid of.DPID, spec controller.FlowSpec) error
	checkDeleteFlow(corr uint64, dpid of.DPID, match *of.Match, priority uint16) error
}

// txAPI is what a transaction needs of the API variant that opened it:
// the app's own calls, plus the kernel-side rollback log — the rules a
// call is about to displace, as the shadow table holds them rather than
// as the app may see them, and a way to put one back under the owner it
// had. Restoring the pre-transaction state grants nothing new, so it is
// not permission-checked, and it must not hand the rule to the caller.
type txAPI interface {
	API
	residentFlows(dpid of.DPID, match *of.Match) []*flowtable.Entry
	restoreFlow(dpid of.DPID, e *flowtable.Entry) error
}

// Tx is an atomic group of flow operations. Build it with the fluent
// Insert/Delete methods and Commit once; the entire group executes only
// if every call passes permission checking, and a mid-apply failure rolls
// back the already-applied prefix: every shadow table ends with the rules,
// owners and actions it started with. A reinstalled rule goes to the end
// of its priority run, as it does on the switch.
type Tx struct {
	api   txAPI
	inner permengine.Tx
	corr  uint64
}

// restoreSpec is the insertion that reinstalls a logged rule.
func restoreSpec(e *flowtable.Entry) controller.FlowSpec {
	return controller.FlowSpec{
		Match: e.Match, Priority: e.Priority, Actions: e.Actions,
		IdleTimeout: e.IdleTimeout, HardTimeout: e.HardTimeout,
		Cookie: e.Cookie,
	}
}

// exactRule narrows a snapshot to the rule with exactly this match and
// priority: the one an insert replaces or a strict delete removes.
func exactRule(entries []*flowtable.Entry, match *of.Match, priority uint16) []*flowtable.Entry {
	if match == nil {
		match = of.NewMatch()
	}
	for i, e := range entries {
		if e.Priority == priority && e.Match.Equal(match) {
			return entries[i : i+1]
		}
	}
	return nil
}

// restore reinstalls logged rules; a switch that is gone took its rules
// with it, which ends the undo for that switch without an error.
func (t *Tx) restore(dpid of.DPID, entries []*flowtable.Entry) error {
	for _, e := range entries {
		if err := t.api.restoreFlow(dpid, e); err != nil {
			if switchGone(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ensureOrigin mints the transaction's correlation ID on the first
// planned call and attributes the inner transaction's commit/abort/
// rollback audit events to the owning app. The prechecks carry the same
// ID, so a tx abort and the denial that caused it correlate.
func (t *Tx) ensureOrigin() uint64 {
	if t.corr == 0 {
		t.corr = audit.NextCorr()
		t.inner.SetOrigin(t.api.AppName(), t.corr)
	}
	return t.corr
}

// InsertFlow plans a flow insertion.
func (t *Tx) InsertFlow(dpid of.DPID, spec controller.FlowSpec) *Tx {
	corr := t.ensureOrigin()
	var check func() error
	if pc, ok := t.api.(prechecker); ok {
		check = func() error { return pc.checkInsertFlow(corr, dpid, spec) }
	}
	var displaced []*flowtable.Entry // the rule this insert replaces, if any
	t.inner.Add(permengine.PlannedCall{
		Call:  txDesc{fmt: "insert-flow"},
		Check: check,
		Apply: func() error {
			displaced = exactRule(t.api.residentFlows(dpid, spec.Match), spec.Match, spec.Priority)
			return t.api.InsertFlow(dpid, spec)
		},
		Revert: func() error {
			if len(displaced) > 0 {
				return t.restore(dpid, displaced)
			}
			if err := t.api.DeleteFlow(dpid, spec.Match, spec.Priority, true); err != nil && !switchGone(err) {
				return err
			}
			return nil
		},
	})
	return t
}

// DeleteFlow plans a flow deletion. On rollback the removed rules are
// reinstalled under the owners they had.
func (t *Tx) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) *Tx {
	corr := t.ensureOrigin()
	var check func() error
	if pc, ok := t.api.(prechecker); ok {
		check = func() error { return pc.checkDeleteFlow(corr, dpid, match, priority) }
	}
	var removed []*flowtable.Entry
	t.inner.Add(permengine.PlannedCall{
		Call:  txDesc{fmt: "delete-flow"},
		Check: check,
		Apply: func() error {
			// The rules match subsumes are what a non-strict delete
			// removes; a strict one removes the equal rule among them.
			removed = t.api.residentFlows(dpid, match)
			if strict {
				removed = exactRule(removed, match, priority)
			}
			return t.api.DeleteFlow(dpid, match, priority, strict)
		},
		Revert: func() error { return t.restore(dpid, removed) },
	})
	return t
}

// SendPacketOut plans a packet injection. Packet-outs cannot be undone;
// place them last so a rollback never needs to revert one.
func (t *Tx) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) *Tx {
	t.ensureOrigin()
	t.inner.Add(permengine.PlannedCall{
		Call:  txDesc{fmt: "packet-out"},
		Apply: func() error { return t.api.SendPacketOut(dpid, bufferID, inPort, actions, pkt) },
	})
	return t
}

// Len returns the number of planned calls.
func (t *Tx) Len() int { return t.inner.Len() }

// Commit checks all calls, then applies them atomically.
func (t *Tx) Commit() error { return t.inner.Commit() }

type txDesc struct{ fmt string }

func (d txDesc) String() string { return d.fmt }
