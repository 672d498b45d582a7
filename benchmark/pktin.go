package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"sdnshield/internal/apps"
	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/isolation"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// pktin_l2: reactive flow set-up, the paper's Fig. 6/7. Two cbench fake
// switches over of.Pipe (in memory — no socket is crossed), 256 hosts
// pre-learned and 256 rules resident per switch, apps.L2Switch with its
// own three-line manifest, one arm on isolation.Shield and one on
// isolation.Monolith. One driver goroutine: a latency phase with one
// packet-in outstanding, then a throughput phase with a window of 16.
const (
	pktinSwitches = 2
	pktinHosts    = 256
	pktinPorts    = 4
	pktinWindow   = 16
	// unknownHost is never a packet-in source, so it is never learned and
	// a packet-in towards it is flooded.
	unknownHost = 0xffff
	// opTimeout bounds every wait for a response. cbench arms a timer per
	// wait that lives until it fires, so the timeout also sets how many
	// dead timers the load generator keeps on the heap.
	opTimeout = time.Second
)

// hostMAC mirrors cbench's fabricated host addresses, so the harness can
// check what a flow-mod matches on.
func hostMAC(dpid of.DPID, idx int) of.MAC {
	return of.MAC{0x0a, byte(dpid >> 8), byte(dpid), 0, byte(idx >> 8), byte(idx)}
}

func hostPort(idx int) uint16 { return uint16(idx%pktinPorts) + 1 }

// pktinArm is one runtime under the same traffic.
type pktinArm struct {
	arm      uint8
	kernel   *controller.Kernel
	shield   *isolation.Shield // nil on the monolith arm
	switches []*cbench.FakeSwitch
	l2       *apps.L2Switch

	op     atomic.Uint32 // traced operation outstanding
	sentAt atomic.Int64  // when its packet-in was sent (tracer clock)

	flowMods uint64 // flow set-ups the driver completed, pre-fill included
	floods   uint64 // packet-ins towards the unknown host
	samples  []int64
	failed   int64
}

type pktinScenario struct {
	tr    *tracer
	arms  [2]*pktinArm
	pairs [][2]uint8 // seeded (source, destination) host sequence
	next  int
	log   failureLog
}

func (s *pktinScenario) setup(seed int64, tr *tracer) error {
	s.tr = tr
	r := rand.New(rand.NewSource(seed))
	s.pairs = make([][2]uint8, 1<<16)
	for i := range s.pairs {
		src := r.Intn(pktinHosts)
		dst := (src + 1 + r.Intn(pktinHosts-1)) % pktinHosts
		s.pairs[i] = [2]uint8{uint8(src), uint8(dst)}
	}
	for i := range s.arms {
		a, err := s.buildArm(uint8(i))
		if a != nil {
			s.arms[i] = a
		}
		if err != nil {
			return fmt.Errorf("%s arm: %w", armNames[i], err)
		}
	}
	return nil
}

func (s *pktinScenario) buildArm(arm uint8) (*pktinArm, error) {
	a := &pktinArm{arm: arm, kernel: controller.New(nil, nil), samples: make([]int64, 0, 1<<17)}
	for i := 1; i <= pktinSwitches; i++ {
		fs, err := cbench.Connect(a.kernel, of.DPID(i), pktinPorts)
		if err != nil {
			return a, err
		}
		a.switches = append(a.switches, fs)
	}
	a.l2 = apps.NewL2Switch("l2switch")
	var app isolation.App = a.l2
	if s.tr != nil {
		app = &tracedApp{inner: a.l2, tr: s.tr, arm: arm, op: &a.op, sentAt: &a.sentAt}
	}
	if arm == armShield {
		a.shield = isolation.NewShield(a.kernel, isolation.Config{})
		a.shield.SetPermissions(a.l2.Name(), permlang.MustParse(a.l2.RequiredPermissions()).Set())
		if err := a.shield.Launch(app); err != nil {
			return a, err
		}
	} else if err := isolation.NewMonolith(a.kernel).Launch(app); err != nil {
		return a, err
	}

	// Pre-learn every host (a packet-in from it towards the unknown host,
	// which is flooded), then set one flow up towards every host so each
	// table holds its 256 rules before anything is timed.
	for _, fs := range a.switches {
		for h := 0; h < pktinHosts; h++ {
			if err := fs.SendPacketIn(h, unknownHost, hostPort(h)); err != nil {
				return a, err
			}
			if _, err := fs.WaitResponse(opTimeout); err != nil {
				return a, fmt.Errorf("pre-learn host %d on %v: %w", h, fs.DPID(), err)
			}
			a.floods++
		}
		for h := 0; h < pktinHosts; h++ {
			if _, err := a.flowSetup(fs, (h+1)%pktinHosts, h); err != nil {
				return a, fmt.Errorf("pre-fill host %d on %v: %w", h, fs.DPID(), err)
			}
		}
	}
	return a, nil
}

// checkFlowMod holds the flow-mod against the packet-in that caused it:
// it must match on the packet-in's eth_dst and forward to the port that
// host was learned on.
func checkFlowMod(fs *cbench.FakeSwitch, fm *of.FlowMod, dst int) error {
	want := hostMAC(fs.DPID(), dst).Uint64()
	got, _ := fm.Match.Get(of.FieldEthDst)
	if fm.Match.IsWildcarded(of.FieldEthDst) || got != want {
		return fmt.Errorf("flow-mod on %v matches eth_dst %x, packet-in had %x", fs.DPID(), got, want)
	}
	if len(fm.Actions) != 1 || fm.Actions[0] != of.Output(hostPort(dst)) {
		return fmt.Errorf("flow-mod on %v has actions %s, host was learned on port %d",
			fs.DPID(), of.ActionsString(fm.Actions), hostPort(dst))
	}
	return nil
}

// flowSetup runs one flow set-up with nothing else outstanding on the
// switch: packet-in sent → flow-mod received is the timed interval; the
// packet-out that follows is waited for outside it.
func (a *pktinArm) flowSetup(fs *cbench.FakeSwitch, src, dst int) (time.Duration, error) {
	start := time.Now()
	if err := fs.SendPacketIn(src, dst, hostPort(src)); err != nil {
		return 0, err
	}
	fm, err := fs.WaitFlowMod(opTimeout)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	a.flowMods++
	if err := checkFlowMod(fs, fm, dst); err != nil {
		return d, err
	}
	msg, err := fs.WaitResponse(opTimeout)
	if err != nil {
		return d, fmt.Errorf("packet-out after flow-mod: %w", err)
	}
	if _, ok := msg.(*of.PacketOut); !ok {
		return d, fmt.Errorf("expected a packet-out after the flow-mod, got %s", msg.Type())
	}
	return d, nil
}

func (s *pktinScenario) nextPair() (src, dst int) {
	p := s.pairs[s.next%len(s.pairs)]
	s.next++
	return int(p[0]), int(p[1])
}

// latencyPhase keeps one packet-in outstanding for d and samples packet-in
// sent → flow-mod received. Spans are recorded here when tracing is on.
func (s *pktinScenario) latencyPhase(a *pktinArm, d time.Duration) {
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		fs := a.switches[i%len(a.switches)]
		src, dst := s.nextPair()
		var op uint32
		t0 := s.tr.begin()
		if t0 != 0 {
			op = a.op.Add(1)
			a.sentAt.Store(t0)
		}
		lat, err := a.flowSetup(fs, src, dst)
		if t0 != 0 {
			s.tr.add(spanFlowsetup, a.arm, op, t0, t0+int64(lat))
		}
		if err != nil {
			a.failed++
			s.log.addf("%s: %v", armNames[a.arm], err)
			continue
		}
		a.samples = append(a.samples, int64(lat))
	}
}

// throughputPhase keeps pktinWindow packet-ins outstanding for d and
// returns how many flow set-ups completed and how long that took.
func (s *pktinScenario) throughputPhase(a *pktinArm, d time.Duration) (int64, time.Duration) {
	type pending struct{ sw, dst int }
	var fifo [pktinWindow]pending
	head, inflight, sent := 0, 0, 0
	var done int64
	start := time.Now()
	deadline := start.Add(d)
	for {
		for inflight < pktinWindow && time.Now().Before(deadline) {
			sw := sent % len(a.switches)
			src, dst := s.nextPair()
			if err := a.switches[sw].SendPacketIn(src, dst, hostPort(src)); err != nil {
				a.failed++
				s.log.addf("%s: send packet-in: %v", armNames[a.arm], err)
				return done, time.Since(start)
			}
			fifo[(head+inflight)%pktinWindow] = pending{sw, dst}
			inflight++
			sent++
		}
		if inflight == 0 {
			return done, time.Since(start)
		}
		p := fifo[head]
		head, inflight = (head+1)%pktinWindow, inflight-1
		fm, err := a.switches[p.sw].WaitFlowMod(opTimeout)
		if err == nil {
			a.flowMods++
			err = checkFlowMod(a.switches[p.sw], fm, p.dst)
		}
		if err != nil {
			a.failed++
			s.log.addf("%s: window: %v", armNames[a.arm], err)
			continue
		}
		done++
	}
}

// settle waits until every packet-out of the completed flow set-ups has
// reached its switch, then empties the response streams.
func (a *pktinArm) settle() {
	deadline := time.Now().Add(opTimeout)
	for a.packetOuts() < a.flowMods+a.floods && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	for _, fs := range a.switches {
		fs.Drain()
	}
}

func (a *pktinArm) packetOuts() uint64 {
	var n uint64
	for _, fs := range a.switches {
		n += fs.PacketOuts()
	}
	return n
}

// slice runs one arm's share of a round: latency phase, then throughput
// phase, the tracer paused for the second (its spans assume one
// outstanding operation).
func (s *pktinScenario) slice(a *pktinArm, d time.Duration) opStat {
	a.samples, a.failed = a.samples[:0], 0
	s.latencyPhase(a, d/2)
	traced := s.tr.active()
	if traced {
		s.tr.on.Store(false)
	}
	done, wall := s.throughputPhase(a, d/2)
	a.settle()
	if traced {
		s.tr.on.Store(true)
	}
	st := latencyStat(a.samples, d/2, a.failed)
	st.PerSec = float64(done) / wall.Seconds()
	st.Ops += done
	return st
}

func (s *pktinScenario) round(i int, d time.Duration) (map[string]opStat, uint64, int64) {
	// The shield arm gets three quarters of the round (it carries the
	// end-to-end metrics); which arm goes first alternates.
	stats := make(map[string]opStat, 2)
	var mallocs uint64
	runShield := func() {
		m0 := mallocCount()
		stats["shield"] = s.slice(s.arms[armShield], d*3/4)
		mallocs = mallocCount() - m0
	}
	runMono := func() { stats["mono"] = s.slice(s.arms[armMono], d/4) }
	if i%2 == 0 {
		runShield()
		runMono()
	} else {
		runMono()
		runShield()
	}
	return stats, mallocs, stats["shield"].Ops
}

// ruleSet renders a switch's shadow table as a sorted list of rules.
func ruleSet(k *controller.Kernel, dpid of.DPID) ([]string, error) {
	entries, err := k.Flows(dpid, nil)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%s|%d|%s", e.Match.Key(), e.Priority, of.ActionsString(e.Actions))
	}
	sort.Strings(out)
	return out, nil
}

func (s *pktinScenario) verify() []string {
	// Let the load generator's dead wait timers fire before the runner
	// measures the live heap, or it would mostly measure them.
	time.Sleep(opTimeout)
	var bad []string
	for _, a := range s.arms {
		var fm uint64
		for _, fs := range a.switches {
			fm += fs.FlowMods()
		}
		_, inserted, denials := a.l2.Stats()
		if fm != a.flowMods || inserted != a.flowMods {
			bad = append(bad, fmt.Sprintf("%s: switches saw %d flow-mods, app inserted %d, driver completed %d",
				armNames[a.arm], fm, inserted, a.flowMods))
		}
		if po := a.packetOuts(); po != a.flowMods+a.floods {
			bad = append(bad, fmt.Sprintf("%s: %d packet-outs for %d flow-mods and %d floods",
				armNames[a.arm], po, a.flowMods, a.floods))
		}
		if denials != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d calls of the app were denied", armNames[a.arm], denials))
		}
	}
	for i := 1; i <= pktinSwitches; i++ {
		sh, err1 := ruleSet(s.arms[armShield].kernel, of.DPID(i))
		mo, err2 := ruleSet(s.arms[armMono].kernel, of.DPID(i))
		if err1 != nil || err2 != nil {
			bad = append(bad, fmt.Sprintf("switch %d: read rule sets: %v %v", i, err1, err2))
			continue
		}
		if len(sh) != pktinHosts || fmt.Sprint(sh) != fmt.Sprint(mo) {
			bad = append(bad, fmt.Sprintf("switch %d: shield arm holds %d rules, monolith arm %d, and they must be the same %d",
				i, len(sh), len(mo), pktinHosts))
		}
	}
	return bad
}

func (s *pktinScenario) failures() []string { return s.log.msgs }

func (s *pktinScenario) inputs() map[string]any {
	return map[string]any{
		"transport":         "of.Pipe (in-memory; no socket is crossed)",
		"switches":          pktinSwitches,
		"hosts_per_switch":  pktinHosts,
		"window":            pktinWindow,
		"packet_in_hash":    fmt.Sprintf("%016x", hashPairs(s.pairs)),
		"driver_goroutines": 1,
	}
}

func hashPairs(pairs [][2]uint8) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pairs {
		h = (h ^ uint64(p[0])) * 1099511628211
		h = (h ^ uint64(p[1])) * 1099511628211
	}
	return h
}

func (s *pktinScenario) spanTree() map[spanName]spanName {
	return map[spanName]spanName{
		spanDeliver: spanFlowsetup, spanHandler: spanFlowsetup,
		spanInsertFlow: spanHandler, spanSendPktOut: spanHandler,
	}
}

func (s *pktinScenario) close() {
	for _, a := range s.arms {
		if a == nil {
			continue
		}
		if a.shield != nil {
			a.shield.Stop()
		}
		a.kernel.Stop()
		for _, fs := range a.switches {
			fs.Close()
		}
	}
}
