package isolation

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/faults"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
)

// disconnectOnPriority is a deterministic fault plan: the connection
// hard-closes the moment a FlowMod with the given priority crosses it.
// It makes "the switch dies mid-transaction" a reproducible event rather
// than a timing accident.
type disconnectOnPriority struct{ priority uint16 }

func (p disconnectOnPriority) Decide(_ faults.Direction, _ int, msg of.Message) faults.Fault {
	if fm, ok := msg.(*of.FlowMod); ok && fm.Priority == p.priority {
		return faults.Fault{Kind: faults.Disconnect}
	}
	return faults.Fault{}
}

// newFaultyEnv wires a linear network to a kernel, wrapping each switch's
// control connection with the plan wrap returns for it (nil = no faults).
func newFaultyEnv(t *testing.T, switches int, cfg Config, kcfg controller.KernelConfig, wrap func(of.DPID) faults.Plan) *testEnv {
	t.Helper()
	b, err := netsim.Linear(switches)
	if err != nil {
		t.Fatal(err)
	}
	k := controller.New(b.Topo, nil, kcfg)
	for _, sw := range b.Net.Switches() {
		ctrlSide, swSide := of.Pipe()
		if err := sw.Start(swSide); err != nil {
			t.Fatal(err)
		}
		conn := of.Conn(ctrlSide)
		if plan := wrap(sw.DPID()); plan != nil {
			conn = faults.Wrap(conn, plan)
		}
		if _, err := k.AcceptSwitch(conn); err != nil {
			t.Fatal(err)
		}
	}
	s := NewShield(k, cfg)
	t.Cleanup(func() {
		s.Stop()
		k.Stop()
		b.Net.Stop()
	})
	return &testEnv{built: b, kernel: k, shield: s}
}

// TestTxRollsBackOnMidCommitDisconnect is the headline degradation test:
// switch 2's session dies exactly when the transaction's second insert
// reaches the wire. The commit must fail, the already-applied insert on
// switch 1 must be rolled back (shadow and data plane), and the shield
// must keep serving the surviving switch.
func TestTxRollsBackOnMidCommitDisconnect(t *testing.T) {
	env := newFaultyEnv(t, 2,
		Config{KSDWorkers: 2, EventQueueSize: 64},
		controller.KernelConfig{},
		func(dpid of.DPID) faults.Plan {
			if dpid == 2 {
				return disconnectOnPriority{priority: 77}
			}
			return nil
		})
	grant(t, env.shield, "mover", "PERM insert_flow\nPERM delete_flow")

	var api API
	if err := env.shield.Launch(app("mover", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}

	m1 := of.NewMatch().Set(of.FieldIPDst, 0x0a000001)
	m2 := of.NewMatch().Set(of.FieldIPDst, 0x0a000002)
	err := api.Transaction().
		InsertFlow(1, controller.FlowSpec{Match: m1, Priority: 66, Actions: []of.Action{of.Output(1)}}).
		InsertFlow(2, controller.FlowSpec{Match: m2, Priority: 77, Actions: []of.Action{of.Output(1)}}).
		Commit()

	var txErr *TxError
	if !errors.As(err, &txErr) {
		t.Fatalf("commit err = %v, want *TxError", err)
	}
	if txErr.Index != 1 || txErr.Stage != "apply" {
		t.Errorf("failed at call %d (%s), want 1 (apply)", txErr.Index, txErr.Stage)
	}
	if !errors.Is(err, controller.ErrSwitchDisconnected) {
		t.Errorf("cause = %v, want ErrSwitchDisconnected", txErr.Cause)
	}
	if len(txErr.RollbackErrors) != 0 {
		t.Errorf("rollback errors: %v", txErr.RollbackErrors)
	}

	// Switch 1's insert was undone — shadow and data plane agree. The
	// barrier orders the check after the rollback's delete flow-mod.
	if err := env.kernel.Barrier(1); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if entries, err := env.kernel.Flows(1, m1); err != nil || len(entries) != 0 {
		t.Errorf("shadow after rollback: %d entries, err %v", len(entries), err)
	}
	sw1, _ := env.built.Net.Switch(1) // Switches() is unordered
	if got := sw1.Table().Entries(m1); len(got) != 0 {
		t.Errorf("switch 1 data plane kept %d rolled-back rules", len(got))
	}

	// Switch 2's session is gone; switch 1 keeps serving.
	waitCond(t, 2*time.Second, "dead switch teardown", func() bool {
		return len(env.kernel.Switches()) == 1
	})
	if err := api.InsertFlow(1, controller.FlowSpec{Match: m1, Priority: 5, Actions: []of.Action{of.Output(1)}}); err != nil {
		t.Errorf("surviving switch rejected insert: %v", err)
	}
}

// TestShieldDegradesGracefully is the combined acceptance scenario: a
// switch disconnects mid-transaction (rolled back), an app panics
// repeatedly (quarantined), and a healthy app on the surviving switch is
// served throughout.
func TestShieldDegradesGracefully(t *testing.T) {
	env := newFaultyEnv(t, 2,
		Config{
			KSDWorkers:     2,
			EventQueueSize: 64,
			RestartBackoff: time.Millisecond,
			PanicLimit:     2,
			PanicWindow:    time.Minute,
		},
		controller.KernelConfig{},
		func(dpid of.DPID) faults.Plan {
			if dpid == 2 {
				return disconnectOnPriority{priority: 50}
			}
			return nil
		})
	grant(t, env.shield, "mover", "PERM insert_flow\nPERM delete_flow")
	grant(t, env.shield, "crashy", "PERM pkt_in_event")
	grant(t, env.shield, "healthy", "PERM pkt_in_event\nPERM read_statistics")

	var moverAPI, healthyAPI API
	var healthySeen atomic.Uint64
	if err := env.shield.Launch(app("mover", func(a API) error { moverAPI = a; return nil })); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(app("crashy", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) { panic("crashy") })
	})); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(app("healthy", func(a API) error {
		healthyAPI = a
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) { healthySeen.Add(1) })
	})); err != nil {
		t.Fatal(err)
	}

	// Fault 1: the transaction loses switch 2 mid-commit.
	m := of.NewMatch().Set(of.FieldTPDst, 443)
	err := moverAPI.Transaction().
		InsertFlow(1, controller.FlowSpec{Match: m, Priority: 40, Actions: []of.Action{of.Output(1)}}).
		InsertFlow(2, controller.FlowSpec{Match: m, Priority: 50, Actions: []of.Action{of.Output(1)}}).
		Commit()
	var txErr *TxError
	if !errors.As(err, &txErr) {
		t.Fatalf("commit err = %v, want TxError", err)
	}
	if entries, _ := env.kernel.Flows(1, m); len(entries) != 0 {
		t.Errorf("rollback left %d entries on switch 1", len(entries))
	}

	// Fault 2: crashy panics until quarantined; healthy keeps counting.
	h := env.built.Hosts[0]
	i := 0
	waitCond(t, 5*time.Second, "quarantine", func() bool {
		i++
		h.Send(of.NewARPRequest(h.MAC(), h.IP(), of.IPv4(i)))
		hlth, _ := env.shield.AppHealth("crashy")
		return hlth == Quarantined
	})

	before := healthySeen.Load()
	h.Send(of.NewARPRequest(h.MAC(), h.IP(), of.IPv4(7777)))
	waitCond(t, 2*time.Second, "healthy app delivery", func() bool {
		return healthySeen.Load() > before
	})
	if _, err := healthyAPI.SwitchStats(1); err != nil {
		t.Errorf("healthy app's API failed: %v", err)
	}
	if err := moverAPI.InsertFlow(1, controller.FlowSpec{Match: m, Priority: 7, Actions: []of.Action{of.Output(1)}}); err != nil {
		t.Errorf("mover blocked on surviving switch: %v", err)
	}
}

// TestDropQueueUnderInjectedDelay: with delivery delayed by the fault
// injector and a one-slot queue in drop mode, the shield sheds load
// (counting drops) instead of stalling the kernel, and late events still
// arrive once the handler frees up.
func TestDropQueueUnderInjectedDelay(t *testing.T) {
	env := newFaultyEnv(t, 1,
		Config{KSDWorkers: 2, EventQueueSize: 2, DropOnFullQueue: true},
		controller.KernelConfig{},
		func(of.DPID) faults.Plan {
			return faults.NewRandom(11, faults.RandomConfig{
				DelayProb: 0.5,
				MaxDelay:  3 * time.Millisecond,
			})
		})
	grant(t, env.shield, "slow", "PERM pkt_in_event")

	var handled atomic.Uint64
	release := make(chan struct{})
	if err := env.shield.Launch(app("slow", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {
			<-release
			handled.Add(1)
		})
	})); err != nil {
		t.Fatal(err)
	}

	h := env.built.Hosts[0]
	for i := 0; i < 64; i++ {
		h.Send(of.NewARPRequest(h.MAC(), h.IP(), of.IPv4(i)))
	}
	c, _ := env.shield.Container("slow")
	waitCond(t, 2*time.Second, "queue drops", func() bool {
		return c.DroppedEvents() > 0
	})
	close(release)

	// The kernel stayed responsive despite the delayed, shedding path.
	if _, err := env.kernel.SwitchStats(1); err != nil {
		t.Fatalf("kernel stalled: %v", err)
	}
	waitCond(t, 2*time.Second, "delayed events delivered", func() bool {
		return handled.Load() > 0
	})
}
