package controller

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/faults"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
)

// acceptFake registers a hand-driven switch with the kernel: it answers
// the handshake and then goes silent, leaving the test in full control
// of (non-)replies. The returned conn is the switch side.
func acceptFake(t *testing.T, k *Kernel, dpid of.DPID) of.Conn {
	t.Helper()
	ctrl, sw := of.Pipe()
	go func() {
		for {
			msg, err := sw.Recv()
			if err != nil {
				return
			}
			if m, ok := msg.(*of.FeaturesRequest); ok {
				_ = sw.Send(&of.FeaturesReply{Header: of.Header{Xid: m.Xid}, DPID: dpid})
				return
			}
		}
	}()
	if _, err := k.AcceptSwitch(ctrl); err != nil {
		t.Fatal(err)
	}
	return sw
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandshakeTimesOutOnSilentPeer: a connection whose peer never sends
// anything must fail AcceptSwitch after the configured timeout instead of
// blocking forever on Recv.
func TestHandshakeTimesOutOnSilentPeer(t *testing.T) {
	k := New(nil, nil, KernelConfig{RequestTimeout: 50 * time.Millisecond})
	defer k.Stop()
	ctrl, _ := of.Pipe() // switch side never speaks
	start := time.Now()
	if _, err := k.AcceptSwitch(ctrl); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("handshake took %v to time out", elapsed)
	}
}

// TestDisconnectFailsPendingImmediately: a synchronous request against a
// switch whose connection just died must fail with ErrSwitchDisconnected
// at once, not ride out the full request timeout.
func TestDisconnectFailsPendingImmediately(t *testing.T) {
	k := New(nil, nil) // default 5 s timeout
	defer k.Stop()

	var mu sync.Mutex
	var events []string
	k.Subscribe(EventTopology, func(ev Event) {
		mu.Lock()
		events = append(events, ev.TopoChange.What)
		mu.Unlock()
	})

	sw := acceptFake(t, k, 42)
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := k.SwitchStats(42)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request register
	sw.Close()

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSwitchDisconnected) {
			t.Fatalf("err = %v, want ErrSwitchDisconnected", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("pending request took %v to fail", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request still blocked after disconnect")
	}

	// The session is gone: the switch is forgotten and new requests fail
	// with ErrUnknownSwitch immediately.
	waitFor(t, time.Second, "switch removal", func() bool {
		return len(k.Switches()) == 0
	})
	if _, err := k.SwitchStats(42); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("post-teardown err = %v, want ErrUnknownSwitch", err)
	}
	waitFor(t, time.Second, "switch-removed event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range events {
			if e == "switch-removed" {
				return true
			}
		}
		return false
	})
}

// TestRetryRecoversFromTransientDrops: with retries configured, a stats
// request whose first attempts are dropped by the fault injector still
// succeeds.
func TestRetryRecoversFromTransientDrops(t *testing.T) {
	b, err := netsim.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Stop()
	k := New(b.Topo, nil, KernelConfig{
		RequestTimeout: 40 * time.Millisecond,
		MaxRetries:     3,
		RetryBackoff:   5 * time.Millisecond,
		Seed:           7,
	})
	defer k.Stop()

	sw := b.Net.Switches()[0]
	ctrl, swSide := of.Pipe()
	// Controller-side sends: 0=HELLO, 1=FEATURES_REQUEST, 2=stats attempt
	// one, 3=retry one. Drop both; the second retry goes through.
	fc := faults.Wrap(ctrl, faults.Script{Send: map[int]faults.Fault{
		2: {Kind: faults.Drop},
		3: {Kind: faults.Drop},
	}})
	if err := sw.Start(swSide); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AcceptSwitch(fc); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := k.SwitchStats(sw.DPID()); err != nil {
		t.Fatalf("stats with retries failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("succeeded after %v; two timed-out attempts should cost >= 80ms", elapsed)
	}
	if st := fc.Stats(); st.Dropped != 2 {
		t.Errorf("fault stats = %+v, want 2 drops", st)
	}
}

// TestRetriesExhaustedSurfacesTimeout: when every attempt is dropped the
// caller finally sees ErrTimeout, not a hang.
func TestRetriesExhaustedSurfacesTimeout(t *testing.T) {
	b, err := netsim.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Stop()
	k := New(b.Topo, nil, KernelConfig{
		RequestTimeout: 20 * time.Millisecond,
		MaxRetries:     2,
		RetryBackoff:   2 * time.Millisecond,
	})
	defer k.Stop()

	sw := b.Net.Switches()[0]
	ctrl, swSide := of.Pipe()
	fc := faults.Wrap(ctrl, faults.Script{Send: map[int]faults.Fault{
		2: {Kind: faults.Drop}, 3: {Kind: faults.Drop}, 4: {Kind: faults.Drop},
	}})
	if err := sw.Start(swSide); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AcceptSwitch(fc); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SwitchStats(sw.DPID()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestDisconnectDuringBackoffFailsPromptly: a switch whose session dies
// while a timed-out request waits out its retry backoff fails the request
// with ErrSwitchDisconnected at once, not when the hour-long backoff ends.
func TestDisconnectDuringBackoffFailsPromptly(t *testing.T) {
	k := New(nil, nil, KernelConfig{
		RequestTimeout: 20 * time.Millisecond,
		MaxRetries:     3,
		RetryBackoff:   time.Hour,
		BackoffJitter:  -1,
	})
	defer k.Stop()
	sw := acceptFake(t, k, 11) // never answers the stats request
	retries := mRetries.Value()
	errCh := make(chan error, 1)
	go func() {
		_, err := k.SwitchStats(11)
		errCh <- err
	}()
	waitFor(t, 2*time.Second, "the first retry's backoff", func() bool { return mRetries.Value() > retries })
	closed := time.Now()
	sw.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSwitchDisconnected) {
			t.Fatalf("err = %v, want ErrSwitchDisconnected", err)
		}
		if elapsed := time.Since(closed); elapsed > time.Second {
			t.Fatalf("request took %v after the disconnect to fail", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still backing off 5s after the disconnect")
	}
}

// TestProbeDeclaresDeadSwitch: a switch that handshakes and then goes
// silent (without closing its connection) is declared dead after
// ProbeMisses missed echoes and torn down.
func TestProbeDeclaresDeadSwitch(t *testing.T) {
	k := New(nil, nil, KernelConfig{
		ProbeInterval: 15 * time.Millisecond,
		ProbeTimeout:  25 * time.Millisecond,
		ProbeMisses:   2,
	})
	defer k.Stop()

	acceptFake(t, k, 7) // never answers echoes
	waitFor(t, 2*time.Second, "probe-driven teardown", func() bool {
		return len(k.Switches()) == 0
	})
	if _, err := k.SwitchStats(7); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("err = %v, want ErrUnknownSwitch", err)
	}
}

// TestProbedHealthySwitchStaysUp: a responsive switch survives liveness
// probing indefinitely.
func TestProbedHealthySwitchStaysUp(t *testing.T) {
	b, err := netsim.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Stop()
	k := New(b.Topo, nil, KernelConfig{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		ProbeMisses:   2,
	})
	defer k.Stop()

	sw := b.Net.Switches()[0]
	ctrl, swSide := of.Pipe()
	if err := sw.Start(swSide); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AcceptSwitch(ctrl); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // ~12 probe rounds
	if len(k.Switches()) != 1 {
		t.Fatal("healthy switch was torn down by probing")
	}
	if _, err := k.SwitchStats(sw.DPID()); err != nil {
		t.Fatalf("stats after probing: %v", err)
	}
}

// TestInsertFlowUndoesShadowOnSendFailure: a flow-mod that cannot be
// transmitted must not linger in the shadow table.
func TestInsertFlowUndoesShadowOnSendFailure(t *testing.T) {
	k := New(nil, nil)
	defer k.Stop()
	sw := acceptFake(t, k, 9)

	m := of.NewMatch().Set(of.FieldTPDst, 80)
	if err := k.InsertFlow("app", 9, FlowSpec{Match: m, Priority: 4, Actions: []of.Action{of.Output(1)}}); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	waitFor(t, time.Second, "teardown", func() bool { return len(k.Switches()) == 0 })
	// The switch is gone entirely — inserting against it errors without
	// touching any shadow state.
	if err := k.InsertFlow("app", 9, FlowSpec{Match: m, Priority: 5}); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("err = %v, want ErrUnknownSwitch", err)
	}
}

// TestLateReplyStaysOutOfNextRequest: recvLoop takes a reply's channel
// from the pending map before it sends, so a reply can reach a request's
// channel after the request timed out. That channel must not serve the
// next request, or the next request would return the stale reply.
func TestLateReplyStaysOutOfNextRequest(t *testing.T) {
	k := New(nil, nil, KernelConfig{RequestTimeout: time.Second})
	defer k.Stop()
	sw := acceptFake(t, k, 42)
	h := (*k.switches.Load())[42]

	// The switch answers only the second request.
	go func() {
		for {
			msg, err := sw.Recv()
			if err != nil {
				return
			}
			if msg.XID() == 1002 {
				_ = sw.Send(&of.EchoReply{Header: of.Header{Xid: 1002}})
			}
		}
	}()

	errCh := make(chan error, 1)
	go func() {
		_, err := k.requestOnce(h, &of.EchoRequest{Header: of.Header{Xid: 1001}}, 30*time.Millisecond)
		errCh <- err
	}()
	var late chan of.Message
	waitFor(t, time.Second, "the first request to register", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		late = h.pending[1001]
		return late != nil
	})
	if err := <-errCh; !errors.Is(err, ErrTimeout) {
		t.Fatalf("first request: err = %v, want ErrTimeout", err)
	}
	late <- &of.EchoReply{Header: of.Header{Xid: 1001}} // as recvLoop would, late

	reply, err := k.requestOnce(h, &of.EchoRequest{Header: of.Header{Xid: 1002}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.XID() != 1002 {
		t.Fatalf("second request got the reply to xid %d", reply.XID())
	}
}
