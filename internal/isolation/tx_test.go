package isolation

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
)

// txCounters reads the four transaction counter families.
func txCounters() [4]float64 {
	reg := obs.Default()
	return [4]float64{
		reg.TotalOf("sdnshield_permengine_tx_commits_total"),
		reg.TotalOf("sdnshield_permengine_tx_aborts_total"),
		reg.TotalOf("sdnshield_permengine_tx_rollbacks_total"),
		reg.TotalOf("sdnshield_permengine_tx_rollback_errors_total"),
	}
}

// TestTxCommitStages walks a transaction through its three outcomes: an
// all-pass commit applies every call; a check failure names the denied
// call, unwraps to the engine's denial and applies nothing; an apply
// failure names the failed call and rolls the applied prefix back.
func TestTxCommitStages(t *testing.T) {
	env := newEnv(t, 2)
	grant(t, env.shield, "stages", "PERM insert_flow LIMITING MAX_PRIORITY 100")
	var api API
	if err := env.shield.Launch(app("stages", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	spec := func(port uint64, prio uint16) controller.FlowSpec {
		return controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, port), Priority: prio,
			Actions: []of.Action{of.Output(1)}}
	}
	flows := func(dpid of.DPID) int {
		fs, _ := env.kernel.Flows(dpid, nil)
		return len(fs)
	}

	if err := api.Transaction().InsertFlow(1, spec(80, 10)).InsertFlow(2, spec(443, 20)).Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if flows(1) != 1 || flows(2) != 1 {
		t.Fatalf("flows after commit = %d, %d, want 1, 1", flows(1), flows(2))
	}

	// Check failure: the paper's problematic intermediate state, where
	// the first rule is in and the second refused, never arises.
	err := api.Transaction().InsertFlow(1, spec(22, 10)).InsertFlow(1, spec(25, 999)).Commit()
	var txErr *TxError
	if !errors.As(err, &txErr) || txErr.Stage != "check" || txErr.Index != 1 {
		t.Fatalf("err = %v", err)
	}
	var denied *permengine.DeniedError
	if !errors.As(err, &denied) {
		t.Errorf("cause %v should unwrap to *permengine.DeniedError", err)
	}
	if flows(1) != 1 {
		t.Fatalf("applied despite check failure: %d flows on switch 1", flows(1))
	}

	// Apply failure: switch 42 does not exist, so the insert before it is
	// undone and the one after it never runs.
	tx := api.Transaction().InsertFlow(1, spec(22, 10)).InsertFlow(42, spec(25, 10)).InsertFlow(2, spec(53, 30))
	err = tx.Commit()
	if !errors.As(err, &txErr) || txErr.Stage != "apply" || txErr.Index != 1 {
		t.Fatalf("err = %v", err)
	}
	if flows(1) != 1 || flows(2) != 1 {
		t.Fatalf("rollback incomplete: %d, %d flows, want 1, 1", flows(1), flows(2))
	}
	if tx.Len() != 3 {
		t.Errorf("Len = %d, want 3", tx.Len())
	}
}

// flowModLog records, in order, every flow-mod the kernel sends over it,
// failed ones too, and fails the Send of those fail picks with
// errRefused, leaving the session up.
type flowModLog struct {
	of.Conn
	fail func(*of.FlowMod) bool

	mu   sync.Mutex
	sent []string
}

var errRefused = errors.New("refused")

func (c *flowModLog) Send(msg of.Message) error {
	if fm, ok := msg.(*of.FlowMod); ok {
		c.mu.Lock()
		c.sent = append(c.sent, fmt.Sprintf("%v/%#x", fm.Command, fm.Cookie))
		c.mu.Unlock()
		if c.fail(fm) {
			return errRefused
		}
	}
	return c.Conn.Send(msg)
}

// TestTxRollbackErrorsSurface: an undo that itself fails leaves residual
// state, so the commit's error must carry it — in RollbackErrors, in the
// Error text and in the rollback-errors counter — while the cause stays
// the apply failure. Here the last insert's flow-mod fails to send, and
// the live session then refuses the strict delete undoing the first: the
// undo runs in reverse, and the shadow keeps the rule the switch still
// holds.
func TestTxRollbackErrorsSurface(t *testing.T) {
	const keepCookie = 0xbeef // its insert goes out, its undo does not
	conn := &flowModLog{fail: func(fm *of.FlowMod) bool {
		return fm.Cookie == failCookie || fm.Cookie == keepCookie && fm.Command == of.FlowDeleteStrict
	}}
	env := newEnvOver(t, 1, func(_ of.DPID, c of.Conn) of.Conn {
		conn.Conn = c
		return conn
	})
	var api API
	if err := NewMonolith(env.kernel).Launch(app("undo", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	spec := func(port, cookie uint64) controller.FlowSpec {
		return controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, port), Priority: 10,
			Actions: []of.Action{of.Output(1)}, Cookie: cookie}
	}
	tx := api.Transaction().InsertFlow(1, spec(80, keepCookie)).InsertFlow(1, spec(443, 1)).InsertFlow(1, spec(22, failCookie))

	before := txCounters()
	err := tx.Commit()
	var txErr *TxError
	if !errors.As(err, &txErr) || txErr.Stage != "apply" || txErr.Index != 2 {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, controller.ErrSwitchDisconnected) {
		t.Errorf("err %v should unwrap to the failed send", err)
	}
	if len(txErr.RollbackErrors) != 1 || txErr.RollbackErrors[0].Error() != "controller: switch disconnected: refused" {
		t.Fatalf("RollbackErrors = %v, want the refused undo", txErr.RollbackErrors)
	}
	if want := "transaction failed at call 2 (apply): controller: switch disconnected: refused (1 rollback errors)"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	conn.mu.Lock()
	sent := fmt.Sprint(conn.sent)
	conn.mu.Unlock()
	if want := "[ADD/0xbeef ADD/0x1 ADD/0xdead DELETE_STRICT/0x1 DELETE_STRICT/0xbeef]"; sent != want {
		t.Errorf("flow-mods sent = %s, want %s: the applied prefix undone in reverse", sent, want)
	}
	after := txCounters()
	if d := [4]float64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}; d != [4]float64{0, 0, 1, 1} {
		t.Errorf("counter deltas commits/aborts/rollbacks/rollback_errors = %v, want [0 0 1 1]", d)
	}
	if err := env.kernel.Barrier(1); err != nil {
		t.Fatal(err)
	}
	shadow, _ := env.kernel.Flows(1, nil)
	sw, _ := env.built.Net.Switch(1)
	onSwitch := sw.Table().Entries(nil)
	if len(shadow) != 1 || shadow[0].Cookie != keepCookie || len(onSwitch) != 1 || onSwitch[0].Cookie != keepCookie {
		t.Errorf("shadow %v, switch %v: both should hold the rule whose undo was refused, alone", shadow, onSwitch)
	}
}

// TestTxJournalTrail pins what a transaction leaves in the journal and
// the counters: one tx event per commit, under the tx's own corr — an
// abort beside the denial that caused it, a rollback naming the failed
// call, a commit counting its calls.
func TestTxJournalTrail(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	env := newEnv(t, 2)
	grant(t, env.shield, "txtrail", "PERM insert_flow LIMITING MAX_PRIORITY 100\nPERM delete_flow")
	var api API
	if err := env.shield.Launch(app("txtrail", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	spec := func(port uint64, prio uint16) controller.FlowSpec {
		return controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, port), Priority: prio,
			Actions: []of.Action{of.Output(1)}}
	}
	j := audit.Default()
	start := j.LastSeq()
	before := txCounters()

	abort := api.Transaction().InsertFlow(1, spec(80, 10)).InsertFlow(1, spec(443, 999))
	abortErr := abort.Commit()
	rollback := api.Transaction().InsertFlow(1, spec(80, 10)).InsertFlow(42, spec(443, 10))
	rollbackErr := rollback.Commit()
	commit := api.Transaction().InsertFlow(1, spec(80, 10)).DeleteFlow(1, spec(80, 10).Match, 10, true)
	if err := commit.Commit(); err != nil {
		t.Fatal(err)
	}
	var abortTx, rollbackTx *TxError
	if !errors.As(abortErr, &abortTx) || !errors.As(rollbackErr, &rollbackTx) {
		t.Fatalf("abort err %v, rollback err %v: want *TxError", abortErr, rollbackErr)
	}
	j.Flush()

	type row struct {
		verdict audit.Verdict
		corr    uint64
		detail  string
	}
	want := []row{
		{audit.VerdictAbort, abort.corr, fmt.Sprintf("call 1 check: %v", abortTx.Cause)},
		{audit.VerdictRollback, rollback.corr, fmt.Sprintf("call 1 apply: %v (0 rollback errors)", rollbackTx.Cause)},
		{audit.VerdictCommit, commit.corr, "2 calls"},
	}
	var got []row
	for _, ev := range j.Query(audit.Filter{App: "txtrail", Kind: audit.KindTx, AfterSeq: start}) {
		got = append(got, row{ev.Verdict, ev.Corr, ev.Detail})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tx events:\n got %v\nwant %v", got, want)
	}
	if abort.corr == 0 || abort.corr == rollback.corr || rollback.corr == commit.corr {
		t.Fatalf("corrs %d, %d, %d: each tx needs its own", abort.corr, rollback.corr, commit.corr)
	}
	if want := `call 1 check: permission denied: app "txtrail" lacks insert_flow`; !strings.HasPrefix(got[0].detail, want) {
		t.Errorf("abort detail %q, want prefix %q", got[0].detail, want)
	}
	denials := j.Query(audit.Filter{App: "txtrail", Kind: audit.KindPermission, Verdict: audit.VerdictDeny,
		Corr: abort.corr, AfterSeq: start})
	if len(denials) != 1 {
		t.Errorf("denials under the abort's corr = %+v, want the one that caused it", denials)
	}
	after := txCounters()
	if d := [4]float64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}; d != [4]float64{1, 1, 1, 0} {
		t.Errorf("counter deltas commits/aborts/rollbacks/rollback_errors = %v, want [1 1 1 0]", d)
	}
}
