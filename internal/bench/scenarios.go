package bench

import (
	"fmt"
	"time"

	"sdnshield/internal/apps"
	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
	"sdnshield/internal/topology"
)

// runtimes names the two app runtimes every experiment compares, in the
// order their rows print.
var runtimes = []string{"baseline", "sdnshield"}

// controlPlane is a kernel with both app runtimes over it, and the one of
// them that launches apps. Both measurement rigs embed it.
type controlPlane struct {
	kernel  *controller.Kernel
	shield  *isolation.Shield
	mono    *isolation.Monolith
	runtime string // one of runtimes; labels result rows
}

func newControlPlane(k *controller.Kernel, runtime string, cfg isolation.Config) controlPlane {
	return controlPlane{
		kernel:  k,
		shield:  isolation.NewShield(k, cfg),
		mono:    isolation.NewMonolith(k),
		runtime: runtime,
	}
}

// launch starts app on the selected runtime: SDNShield confines it to
// set, the baseline runs it with full privileges.
func (c *controlPlane) launch(app isolation.App, set *core.Set) error {
	if c.runtime == "baseline" {
		return c.mono.Launch(app)
	}
	c.shield.SetPermissions(app.Name(), set)
	return c.shield.Launch(app)
}

func (c *controlPlane) stop() {
	c.shield.Stop()
	c.kernel.Stop()
}

// manifest is the permission set an app's own manifest asks for.
func manifest(app interface{ RequiredPermissions() string }) *core.Set {
	return permlang.MustParse(app.RequiredPermissions()).Set()
}

// scenarioEnv is the Fig. 6–8 measurement rig: a kernel fronted by
// CBench fake switches, with apps running on the selected runtime.
type scenarioEnv struct {
	controlPlane
	switches []*cbench.FakeSwitch
}

func newScenarioEnv(nSwitches int, runtime string, cfg isolation.Config) (*scenarioEnv, error) {
	env := &scenarioEnv{controlPlane: newControlPlane(controller.New(nil, nil), runtime, cfg)}
	for i := 1; i <= nSwitches; i++ {
		fs, err := cbench.Connect(env.kernel, of.DPID(i), 4)
		if err != nil {
			env.close()
			return nil, err
		}
		env.switches = append(env.switches, fs)
	}
	return env, nil
}

func (e *scenarioEnv) close() {
	e.stop()
	for _, fs := range e.switches {
		fs.Close()
	}
}

// setupL2 launches the learning switch and pre-learns the measurement
// destination on every fake switch so latency probes trigger flow-mods.
func (e *scenarioEnv) setupL2() (*apps.L2Switch, error) {
	l2 := apps.NewL2Switch("l2switch")
	if err := e.launch(l2, manifest(l2)); err != nil {
		return nil, err
	}
	for _, fs := range e.switches {
		// A packet-in *from* host 2 teaches the app where host 2 lives.
		if err := fs.SendPacketIn(2, 99, 2); err != nil {
			return nil, err
		}
		// The controller floods the unknown destination; wait for it so
		// learning has definitely happened before measuring.
		if _, err := fs.WaitResponse(2 * time.Second); err != nil {
			return nil, fmt.Errorf("pre-learn on %v: %w", fs.DPID(), err)
		}
	}
	return l2, nil
}

// setupTE wires the ALTO + traffic-engineering scenario: a linear
// topology view over the fake switches, one host on each end, and the
// alto/te apps.
func (e *scenarioEnv) setupTE() (*apps.Alto, *apps.TrafficEngineer, error) {
	n := len(e.switches)
	if n < 2 {
		return nil, nil, fmt.Errorf("TE scenario needs >= 2 switches")
	}
	topo := e.kernel.Topology()
	for i := 1; i < n; i++ {
		err := topo.AddLink(topology.Link{
			A: of.DPID(i), APort: 3, B: of.DPID(i + 1), BPort: 2,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	h1 := topology.Host{MAC: of.MAC{0x0e, 0, 0, 0, 0, 1}, IP: of.IPv4FromOctets(10, 9, 0, 1), Switch: 1, Port: 1}
	h2 := topology.Host{MAC: of.MAC{0x0e, 0, 0, 0, 0, 2}, IP: of.IPv4FromOctets(10, 9, 0, 2), Switch: of.DPID(n), Port: 1}
	e.kernel.LearnHost(h1)
	e.kernel.LearnHost(h2)

	alto := apps.NewAlto("alto")
	te := apps.NewTrafficEngineer("te", [][2]of.IPv4{{h1.IP, h2.IP}, {h2.IP, h1.IP}})
	// TE first so it sees ALTO's initial publication.
	if err := e.launch(te, manifest(te)); err != nil {
		return nil, nil, err
	}
	if err := e.launch(alto, manifest(alto)); err != nil {
		return nil, nil, err
	}
	// Wait until the initial reaction produced flow-mods end to end.
	deadline := time.Now().Add(2 * time.Second)
	for e.switches[n-1].FlowMods() == 0 {
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("TE warm-up: no flow-mods observed")
		}
		time.Sleep(time.Millisecond)
	}
	return alto, te, nil
}

// measureTERound times one event-chain reaction: port-status in, next
// flow-mod on the far switch out.
func (e *scenarioEnv) measureTERound(round int, timeout time.Duration) (time.Duration, error) {
	last := e.switches[len(e.switches)-1]
	mid := e.switches[len(e.switches)/2]
	last.Drain()
	start := time.Now()
	if err := mid.SendPortStatus(4, round%2 == 0); err != nil {
		return 0, err
	}
	if _, err := last.WaitFlowMod(timeout); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
