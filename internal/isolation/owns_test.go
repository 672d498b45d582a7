package isolation

import (
	"sync"
	"testing"
	"time"

	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/of"
)

// tamperFilter stands in for an app thread racing its own call: it
// decides as the filter it wraps, and the first time it is consulted —
// that is, between the call's check and its effect — it runs tamper,
// which mutates what the caller passed.
type tamperFilter struct {
	core.Filter
	once   sync.Once
	tamper func()
}

func (f *tamperFilter) Test(call *core.Call) (bool, bool) {
	matched, applicable := f.Filter.Test(call)
	f.once.Do(f.tamper)
	return matched, applicable
}

var (
	allowedDst = of.IPv4FromOctets(10, 0, 0, 1)
	tamperDst  = of.IPv4FromOctets(10, 0, 0, 99)
)

// onlyAllowedDst grants token limited to IP_DST 10.0.0.1, tampering on
// the first check.
func onlyAllowedDst(token core.Token, tamper func()) *core.Set {
	f := &tamperFilter{Filter: core.NewPredFilter(of.FieldIPDst, uint64(allowedDst), 0xffffffff), tamper: tamper}
	return core.NewSet().Grant(token, core.NewLeaf(f))
}

// newOwnsEnv is a kernel with one fake switch, whose flow-mods and
// packet-outs the tests read as sent, and a shield over it.
func newOwnsEnv(t *testing.T) (*controller.Kernel, *cbench.FakeSwitch, *Shield) {
	t.Helper()
	k := controller.New(nil, nil)
	fs, err := cbench.Connect(k, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShield(k, noQuotaLoop())
	t.Cleanup(func() {
		s.Stop()
		k.Stop()
		fs.Close()
	})
	return k, fs, s
}

func launchWith(t *testing.T, s *Shield, name string, set *core.Set) API {
	t.Helper()
	s.SetPermissions(name, set)
	var api API
	if err := s.Launch(app(name, func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	return api
}

// TestCallOwnsItsArguments: an app that mutates the match, actions and
// packet it passed after its call was checked, but before the effect,
// changes nothing — the rule that goes resident and the flow-mod and
// packet-out the switch receives are the call that was checked. The same
// holds for a transaction whose spec the app mutates between plan and
// Commit.
func TestCallOwnsItsArguments(t *testing.T) {
	t.Run("insert_flow", func(t *testing.T) {
		k, fs, s := newOwnsEnv(t)
		spec := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldIPDst, uint64(allowedDst)), Priority: 10,
			Actions: []of.Action{of.Output(1)}}
		api := launchWith(t, s, "app", onlyAllowedDst(core.TokenInsertFlow, func() {
			spec.Match.Set(of.FieldIPDst, uint64(tamperDst))
			spec.Actions[0] = of.Output(7)
		}))
		if err := api.InsertFlow(1, spec); err != nil {
			t.Fatal(err)
		}
		entries, err := k.Flows(1, nil)
		if err != nil || len(entries) != 1 {
			t.Fatalf("resident rules = %v, %v", entries, err)
		}
		checkChecked(t, "resident rule", entries[0].Match, entries[0].Actions)
		fm, err := fs.WaitFlowMod(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		checkChecked(t, "flow-mod sent", fm.Match, fm.Actions)
	})
	t.Run("packet_out", func(t *testing.T) {
		_, fs, s := newOwnsEnv(t)
		pkt := of.NewTCPPacket(of.MAC{9}, of.MAC{8}, of.IPv4FromOctets(10, 0, 0, 9), allowedDst, 1234, 80, of.TCPFlagSYN)
		pkt.Payload = []byte("checked")
		actions := []of.Action{of.Output(1)}
		api := launchWith(t, s, "app", onlyAllowedDst(core.TokenSendPktOut, func() {
			pkt.IPDst = tamperDst
			pkt.Payload[0] = 'X'
			actions[0] = of.Output(7)
		}))
		if err := api.SendPacketOut(1, 0, 3, actions, pkt); err != nil {
			t.Fatal(err)
		}
		msg, err := fs.WaitResponse(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		po, ok := msg.(*of.PacketOut)
		if !ok {
			t.Fatalf("switch received %T, want a packet-out", msg)
		}
		checkChecked(t, "packet-out sent", of.MatchFromPacket(po.Packet, 3), po.Actions)
		if string(po.Packet.Payload) != "checked" {
			t.Errorf("packet-out sent carries payload %q, the call checked %q", po.Packet.Payload, "checked")
		}
	})
	t.Run("tx", func(t *testing.T) {
		k, _, s := newOwnsEnv(t)
		api := launchWith(t, s, "app", onlyAllowedDst(core.TokenInsertFlow, func() {}))
		spec := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldIPDst, uint64(allowedDst)), Priority: 10,
			Actions: []of.Action{of.Output(1)}}
		tx := api.Transaction().InsertFlow(1, spec)
		spec.Match.Set(of.FieldIPDst, uint64(tamperDst))
		spec.Actions[0] = of.Output(7)
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit of the planned insert: %v", err)
		}
		entries, err := k.Flows(1, nil)
		if err != nil || len(entries) != 1 {
			t.Fatalf("resident rules = %v, %v", entries, err)
		}
		checkChecked(t, "resident rule", entries[0].Match, entries[0].Actions)
	})
}

// checkChecked asserts what reached the kernel or the switch is what the
// tests' calls were checked with: IP_DST 10.0.0.1, output to port 1.
func checkChecked(t *testing.T, what string, m *of.Match, actions []of.Action) {
	t.Helper()
	if v, _ := m.Get(of.FieldIPDst); of.IPv4(v) != allowedDst {
		t.Errorf("%s matches IP_DST %v, the call checked %v", what, of.IPv4(v), allowedDst)
	}
	if len(actions) != 1 || actions[0] != of.Output(1) {
		t.Errorf("%s has actions %v, the call checked [output:1]", what, actions)
	}
}
