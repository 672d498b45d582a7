package isolation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
)

func launchAPI(t *testing.T, env *testEnv, name, manifest string) API {
	t.Helper()
	grant(t, env.shield, name, manifest)
	var api API
	if err := env.shield.Launch(app(name, func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	return api
}

// tables renders every shadow table of the env's switches.
func tables(t *testing.T, env *testEnv, dpids ...of.DPID) map[of.DPID][]string {
	t.Helper()
	out := map[of.DPID][]string{}
	for _, dpid := range dpids {
		entries, err := env.kernel.Flows(dpid, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			out[dpid] = append(out[dpid], fmt.Sprintf("%d %s owner=%s actions=%v", e.Priority, e.Match.Key(), e.Owner, e.Actions))
		}
	}
	return out
}

const virtualTenant = "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS\n"

// TestVirtualTxRollbackRemovesTranslatedRules: a virtual-big-switch app
// granted insert_flow alone commits a transaction whose second insert
// fails to translate; the undo of the first removes every physical rule
// the translator laid for it, kernel-side, without needing delete_flow.
func TestVirtualTxRollbackRemovesTranslatedRules(t *testing.T) {
	env := newEnv(t, 3)
	api := launchAPI(t, env, "tenant", virtualTenant+"PERM insert_flow")
	hosts, err := api.Hosts()
	if err != nil {
		t.Fatal(err)
	}
	h3 := env.built.Hosts[2]
	var vport uint16
	for _, h := range hosts {
		if h.IP == h3.IP() {
			vport = h.Port
		}
	}
	ok := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldIPDst, uint64(h3.IP())), Priority: 10,
		Actions: []of.Action{of.Output(vport)}}
	bad := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, 22), Priority: 10,
		Actions: []of.Action{of.Output(99)}} // no such virtual port
	err = api.Transaction().InsertFlow(0, ok).InsertFlow(0, bad).Commit()
	var txErr *permengine.TxError
	if !errors.As(err, &txErr) || txErr.Stage != "apply" || txErr.Index != 1 {
		t.Fatalf("commit err = %v, want apply failure at call 1", err)
	}
	if len(txErr.RollbackErrors) != 0 {
		t.Fatalf("rollback errors: %v", txErr.RollbackErrors)
	}
	for dpid := of.DPID(1); dpid <= 3; dpid++ {
		if err := env.kernel.Barrier(dpid); err != nil {
			t.Fatal(err)
		}
		if got := tables(t, env, dpid); len(got[dpid]) != 0 {
			t.Errorf("switch %v keeps translated rules after rollback: %v", dpid, got[dpid])
		}
		if got := env.built.Net.Switches()[dpid-1].Table().Entries(nil); len(got) != 0 {
			t.Errorf("switch %v data plane keeps %d rolled-back rules", dpid, len(got))
		}
	}
}

// TestExplainInsertMatchesLiveInsert: Explain of an insert_flow call that
// leaves its stateful attributes unresolved (what POST /explain runs
// without flow_owner) gives the verdict the live InsertFlow of the same
// rule gets, over seeded random tables — both resolve the owner of the
// foreign rule the insert could shadow and the caller's rule count.
func TestExplainInsertMatchesLiveInsert(t *testing.T) {
	env := newEnv(t, 1)
	api := launchAPI(t, env, "b", "PERM insert_flow LIMITING OWN_FLOWS AND MAX_RULE_COUNT 10")
	e := env.shield.Engine()
	seed := func(owner string, m *of.Match, prio uint16) {
		t.Helper()
		if err := env.kernel.InsertFlow(owner, 1, controller.FlowSpec{Match: m, Priority: prio, Actions: []of.Action{of.Output(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(label string, spec controller.FlowSpec) {
		t.Helper()
		ex := e.Explain(&core.Call{App: "b", Token: core.TokenInsertFlow, DPID: 1, HasDPID: true,
			Match: spec.Match, Actions: spec.Actions, Priority: spec.Priority, HasPriority: true})
		err := api.InsertFlow(1, spec)
		var denied *permengine.DeniedError
		if err != nil && !errors.As(err, &denied) {
			t.Fatalf("%s: live insert failed outside the engine: %v", label, err)
		}
		if ex.Allowed != (err == nil) {
			t.Fatalf("%s: Explain allowed=%v (call %s), live insert err=%v", label, ex.Allowed, ex.Call, err)
		}
	}

	// The shape that told the two apart: b's own exact rule above a's
	// match-all at a lower priority.
	web := of.NewMatch().Set(of.FieldTPDst, 80)
	seed("b", web, 10)
	seed("a", of.NewMatch(), 5)
	compare("own rule over foreign match-all", controller.FlowSpec{Match: web, Priority: 10, Actions: []of.Action{of.Output(2)}})

	for s := int64(0); s < 40; s++ {
		r := rand.New(rand.NewSource(s))
		if err := env.kernel.DeleteFlow(1, nil, 0, false); err != nil {
			t.Fatal(err)
		}
		for i, n := 0, r.Intn(14); i < n; i++ {
			seed([]string{"a", "b"}[r.Intn(2)], rollbackMatch(r), uint16(1+r.Intn(40)))
		}
		for i := 0; i < 6; i++ {
			m := rollbackMatch(r)
			if r.Intn(5) == 0 {
				m = of.NewMatch()
			}
			compare(fmt.Sprintf("seed %d insert %d", s, i),
				controller.FlowSpec{Match: m, Priority: uint16(1 + r.Intn(40)), Actions: []of.Action{of.Output(2)}})
		}
	}
}

// TestVirtualAppConfinedToBigSwitch: for an app behind the virtual big
// switch, every DPID-addressed op refuses a physical DPID with the
// translator's error and leaves the physical tables as they were.
func TestVirtualAppConfinedToBigSwitch(t *testing.T) {
	env := newEnv(t, 3)
	api := launchAPI(t, env, "tenant", virtualTenant+"PERM insert_flow\nPERM modify_flow\nPERM delete_flow\n"+
		"PERM read_flow_table\nPERM send_pkt_out\nPERM read_statistics")
	web := of.NewMatch().Set(of.FieldTPDst, 80)
	if err := env.kernel.InsertFlow("other", 2, controller.FlowSpec{Match: web, Priority: 10, Actions: []of.Action{of.Output(2)}}); err != nil {
		t.Fatal(err)
	}
	before := tables(t, env, 1, 2, 3)
	pkt := of.NewTCPPacket(of.MAC{9}, of.MAC{8}, of.IPv4FromOctets(10, 0, 0, 9), of.IPv4FromOctets(10, 0, 0, 1), 1234, 80, of.TCPFlagSYN)
	ops := map[string]func(dpid of.DPID) error{
		"insert_flow": func(d of.DPID) error {
			return api.InsertFlow(d, controller.FlowSpec{Match: web, Priority: 20, Actions: []of.Action{of.Output(3)}})
		},
		"modify_flow":  func(d of.DPID) error { return api.ModifyFlow(d, web, 10, []of.Action{of.Output(3)}) },
		"delete_flow":  func(d of.DPID) error { return api.DeleteFlow(d, nil, 0, false) },
		"flows":        func(d of.DPID) error { _, err := api.Flows(d, nil); return err },
		"packet_out":   func(d of.DPID) error { return api.SendPacketOut(d, 0, 1, []of.Action{of.Output(3)}, pkt) },
		"flow_stats":   func(d of.DPID) error { _, err := api.FlowStats(d, nil); return err },
		"port_stats":   func(d of.DPID) error { _, err := api.PortStats(d, of.PortNone); return err },
		"switch_stats": func(d of.DPID) error { _, err := api.SwitchStats(d); return err },
	}
	for name, call := range ops {
		for dpid := of.DPID(1); dpid <= 3; dpid++ {
			if err := call(dpid); err == nil || !strings.Contains(err.Error(), "sees only the virtual switch") {
				t.Errorf("%s on physical DPID %v: err = %v, want the translator's refusal", name, dpid, err)
			}
		}
	}
	if after := tables(t, env, 1, 2, 3); !reflect.DeepEqual(before, after) {
		t.Errorf("physical tables changed\nbefore: %v\nafter:  %v", before, after)
	}
}
