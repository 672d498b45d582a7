package isolation

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/of"
)

// newEnvCfg is newEnv with a caller-supplied shield configuration.
func newEnvCfg(t *testing.T, switches int, cfg Config) *testEnv {
	t.Helper()
	return newEnvWith(t, switches, nil, cfg)
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSupervisorRestartsThenQuarantines drives an app whose handler
// panics on every event through the full lifecycle: restart with
// re-initialization, then quarantine once the panic budget is spent —
// while a healthy app keeps receiving events and API service.
func TestSupervisorRestartsThenQuarantines(t *testing.T) {
	env := newEnvCfg(t, 1, Config{
		KSDWorkers:     2,
		EventQueueSize: 64,
		RestartBackoff: time.Millisecond,
		PanicLimit:     3,
		PanicWindow:    time.Minute,
	})
	grant(t, env.shield, "flappy", "PERM pkt_in_event")
	grant(t, env.shield, "steady", "PERM pkt_in_event\nPERM read_statistics")

	var inits atomic.Uint64
	var flappyAPI API
	flappy := app("flappy", func(a API) error {
		inits.Add(1)
		flappyAPI = a
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {
			panic("flappy boom")
		})
	})
	var steadySeen atomic.Uint64
	var steadyAPI API
	steady := app("steady", func(a API) error {
		steadyAPI = a
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {
			steadySeen.Add(1)
		})
	})
	if err := env.shield.Launch(flappy); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(steady); err != nil {
		t.Fatal(err)
	}

	c, ok := env.shield.Container("flappy")
	if !ok {
		t.Fatal("container missing")
	}
	// Keep generating packet-ins until the supervisor gives up on the
	// app. Each delivered event panics; the supervisor restarts it twice
	// (strikes 1 and 2) and quarantines on strike 3.
	h := env.built.Hosts[0]
	i := 0
	waitCond(t, 5*time.Second, "quarantine", func() bool {
		i++
		h.Send(of.NewARPRequest(h.MAC(), h.IP(), of.IPv4(i)))
		hlth, _ := env.shield.AppHealth("flappy")
		return hlth == Quarantined
	})

	if c.Restarts() < 1 {
		t.Errorf("restarts = %d, want >= 1", c.Restarts())
	}
	if inits.Load() < 2 {
		t.Errorf("init ran %d times, want >= 2 (launch + restart)", inits.Load())
	}
	if c.Panics() < 3 {
		t.Errorf("panics = %d, want >= 3", c.Panics())
	}

	// The quarantined app's API handle is dead.
	if _, err := flappyAPI.SwitchStats(1); !errors.Is(err, ErrAppQuarantined) {
		t.Errorf("quarantined API err = %v, want ErrAppQuarantined", err)
	}

	// The healthy app is unaffected: events still arrive and its API
	// still answers.
	before := steadySeen.Load()
	h.Send(of.NewARPRequest(h.MAC(), h.IP(), of.IPv4(9999)))
	waitCond(t, 2*time.Second, "steady app delivery", func() bool {
		return steadySeen.Load() > before
	})
	if _, err := steadyAPI.SwitchStats(1); err != nil {
		t.Errorf("healthy app's API broken: %v", err)
	}
	if hlth, _ := env.shield.AppHealth("steady"); hlth != Running {
		t.Errorf("steady health = %v, want running", hlth)
	}
}

// TestSupervisorRecoversOneOffPanic: a single panic restarts the app and
// it returns to Running with its subscriptions rebuilt.
func TestSupervisorRecoversOneOffPanic(t *testing.T) {
	env := newEnvCfg(t, 1, Config{
		KSDWorkers:     2,
		EventQueueSize: 64,
		RestartBackoff: time.Millisecond,
		PanicLimit:     5,
		PanicWindow:    time.Minute,
	})
	grant(t, env.shield, "oneoff", "PERM pkt_in_event")

	var seen atomic.Uint64
	var bomb atomic.Bool
	bomb.Store(true)
	oneoff := app("oneoff", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {
			if bomb.Swap(false) {
				panic("one-off boom")
			}
			seen.Add(1)
		})
	})
	if err := env.shield.Launch(oneoff); err != nil {
		t.Fatal(err)
	}

	h := env.built.Hosts[0]
	h.Send(of.NewARPRequest(h.MAC(), h.IP(), 1))
	c, _ := env.shield.Container("oneoff")
	waitCond(t, 2*time.Second, "restart", func() bool {
		return c.Restarts() >= 1 && c.Health() == Running
	})
	// Post-restart the rebuilt subscription delivers normally.
	i := 0
	waitCond(t, 2*time.Second, "post-restart delivery", func() bool {
		i++
		h.Send(of.NewARPRequest(h.MAC(), h.IP(), of.IPv4(100+i)))
		return seen.Load() > 0
	})
	if hlth, _ := env.shield.AppHealth("oneoff"); hlth != Running {
		t.Errorf("health = %v, want running", hlth)
	}
}

// TestKSDSurvivesPanicInMediatedCall: a panic inside the closure a deputy
// runs must surface as an error to the caller, be counted on the engine,
// and leave the KSD pool fully operational. A panic in the decision of a
// transaction's planned call is one inside its commit, a mediated call.
func TestKSDSurvivesPanicInMediatedCall(t *testing.T) {
	env := newEnv(t, 1)
	err := env.shield.do(nil, newMediatedOp("test_panic"), controller.Origin{}, func(controller.Origin) error { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "panic in mediated API call") {
		t.Fatalf("err = %v, want mediated-call panic error", err)
	}
	if n := env.shield.Engine().APIPanics(); n != 1 {
		t.Errorf("APIPanics = %d, want 1", n)
	}
	boom := *opInsertFlow
	boom.decide = func(*request) error { panic("kaboom") }
	tx := launchAPI(t, env, "txpanic", "PERM insert_flow").Transaction()
	tx.plan(&boom, args{dpid: env.kernel.Topology().SwitchIDs()[0]})
	err = func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("commit unwound its caller: %v", p)
			}
		}()
		return tx.Commit()
	}()
	if err == nil || !strings.Contains(err.Error(), "panic in mediated API call") {
		t.Fatalf("commit whose planned call's decision panics: err = %v, want mediated-call panic error", err)
	}
	if n := env.shield.Engine().APIPanics(); n != 2 {
		t.Errorf("APIPanics after the commit's panic = %d, want 2", n)
	}
	// The pool still serves requests — every worker, not just one.
	for i := 0; i < 8; i++ {
		if err := env.shield.do(nil, newMediatedOp("test_noop"), controller.Origin{}, func(controller.Origin) error { return nil }); err != nil {
			t.Fatalf("KSD pool broken after panic: %v", err)
		}
	}
}

// TestHealthStrings pins the state names used in logs and dashboards.
func TestHealthStrings(t *testing.T) {
	want := map[Health]string{
		Running: "running", Restarting: "restarting",
		Quarantined: "quarantined", Stopped: "stopped", Health(99): "health(?)",
	}
	for h, s := range want {
		if h.String() != s {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), s)
		}
	}
}
