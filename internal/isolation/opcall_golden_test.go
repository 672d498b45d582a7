package isolation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/topology"
)

// renderCall prints every field of the call the engine was handed —
// Call.String() leaves out priority, owner, rule count, stats level,
// switches, links, path and provenance. The corr differs per run, so only
// whether one was minted is printed; nil slices and pointers print "nil"
// so an empty action list stays distinguishable from a missing one.
func renderCall(c *core.Call) string {
	var b strings.Builder
	v := reflect.ValueOf(*c)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		val := fmt.Sprint(f.Interface())
		switch {
		case name == "Corr":
			val = fmt.Sprint(c.Corr != 0)
		case (f.Kind() == reflect.Slice || f.Kind() == reflect.Pointer) && f.IsNil():
			val = "nil"
		}
		fmt.Fprintf(&b, "  %s: %s\n", name, val)
	}
	return b.String()
}

// TestOpCallGolden pins the core.Call each mediated op hands the engine:
// every op of the API, modify through the insert_flow fallback, each
// data-model root, and the virtual big switch's insert and delete on DPID
// 0. Each call runs under a manifest that denies it, and is read back
// from the engine's retained-denial ring by its corr (go test -run
// TestOpCallGolden -update rewrites testdata/opcalls.golden).
func TestOpCallGolden(t *testing.T) {
	env := newEnv(t, 3)
	e := env.shield.Engine()
	deny := "SWITCH {9}" // applicable to every call that names a switch
	launch := func(name, manifest string) API {
		t.Helper()
		grant(t, env.shield, name, manifest)
		var api API
		if err := env.shield.Launch(app(name, func(a API) error { api = a; return nil })); err != nil {
			t.Fatal(err)
		}
		return api
	}
	seed := func(owner string, match *of.Match, prio uint16, actions ...of.Action) {
		t.Helper()
		if err := env.kernel.InsertFlow(owner, 1, controller.FlowSpec{Match: match, Priority: prio, Actions: actions}); err != nil {
			t.Fatal(err)
		}
	}
	web := of.NewMatch().Set(of.FieldTPDst, 80)
	subnet := of.NewMatch().SetMasked(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, 0, 0)), uint64(of.PrefixMask(8)))

	flows := launch("flows", "PERM insert_flow LIMITING "+deny+"\nPERM delete_flow LIMITING "+deny+
		"\nPERM modify_flow LIMITING "+deny+"\nPERM read_statistics LIMITING "+deny+"\nPERM send_pkt_out LIMITING "+deny)
	fallback := launch("fallback", "PERM insert_flow LIMITING "+deny)
	blind := launch("blind", "PERM pkt_in_event")
	topo := launch("topo", "PERM modify_topology LIMITING "+deny)
	host := launch("host", "PERM host_network LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0")
	virt := launch("virt", "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS\n"+
		"PERM insert_flow LIMITING "+deny+"\nPERM delete_flow LIMITING "+deny)
	seed("other", subnet, 5, of.Output(2))
	seed("flows", web, 20, of.Output(1))
	seed("flows", of.NewMatch().Set(of.FieldTPDst, 22), 30, of.Drop())
	seed("fallback", of.NewMatch().Set(of.FieldTPDst, 443), 7, of.Output(3))

	pkt := of.NewTCPPacket(of.MAC{9}, of.MAC{8}, of.IPv4FromOctets(10, 0, 0, 9), of.IPv4FromOctets(10, 0, 0, 1), 1234, 80, of.TCPFlagSYN)
	spec := controller.FlowSpec{Match: web.Clone().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, 0, 2))), Priority: 10,
		Actions: []of.Action{of.Output(2)}, Cookie: 7}
	type opCase struct {
		name string
		call func() error
	}
	cases := []opCase{
		{"insert_flow", func() error { return flows.InsertFlow(1, spec) }},
		{"insert_flow/nil_match_nil_actions", func() error { return flows.InsertFlow(1, controller.FlowSpec{Priority: 3}) }},
		{"modify_flow/affected", func() error { return flows.ModifyFlow(1, web, 20, []of.Action{of.Output(3)}) }},
		{"modify_flow/nil_actions", func() error { return flows.ModifyFlow(1, web, 20, nil) }},
		{"modify_flow/unaffected", func() error {
			return flows.ModifyFlow(1, of.NewMatch().Set(of.FieldTPDst, 9), 4, []of.Action{of.Output(3)})
		}},
		{"modify_flow/insert_fallback", func() error { return fallback.ModifyFlow(1, nil, 7, []of.Action{of.Output(1)}) }},
		{"delete_flow/affected", func() error { return flows.DeleteFlow(1, subnet, 5, false) }},
		{"delete_flow/unaffected", func() error { return flows.DeleteFlow(1, of.NewMatch().Set(of.FieldTPDst, 9), 4, true) }},
		{"flows", func() error { _, err := blind.Flows(1, web); return err }},
		{"packet_out/inline", func() error { return flows.SendPacketOut(1, 0, 3, []of.Action{of.Output(1)}, pkt) }},
		{"packet_out/buffered", func() error { return flows.SendPacketOut(1, 77, of.PortNone, nil, nil) }},
		{"flow_stats", func() error { _, err := flows.FlowStats(1, web); return err }},
		{"flow_stats/nil_match", func() error { _, err := flows.FlowStats(2, nil); return err }},
		{"port_stats", func() error { _, err := flows.PortStats(1, 2); return err }},
		{"switch_stats", func() error { _, err := flows.SwitchStats(3); return err }},
		{"switches", func() error { _, err := blind.Switches(); return err }},
		{"links", func() error { _, err := blind.Links(); return err }},
		{"hosts", func() error { _, err := blind.Hosts(); return err }},
		{"add_link", func() error { return topo.AddLink(topology.Link{A: 1, APort: 3, B: 3, BPort: 2}) }},
		{"remove_link", func() error { return topo.RemoveLink(2, 1) }},
		{"host_connect", func() error { _, err := host.HostConnect(of.IPv4FromOctets(203, 0, 113, 7), 80); return err }},
		{"host_read_file", func() error { _, err := host.HostReadFile("/etc/passwd"); return err }},
		{"host_write_file", func() error { return host.HostWriteFile("/tmp/x", []byte("x")) }},
		{"host_exec", func() error { return host.HostExec("sh") }},
		{"virtual/insert_flow", func() error { return virt.InsertFlow(0, spec) }},
		{"virtual/delete_flow", func() error { return virt.DeleteFlow(0, web, 10, true) }},
	}
	for _, root := range []string{"topology", "alto", "stats", "flows", "other"} {
		path := root + "/x"
		cases = append(cases,
			opCase{"publish/" + root, func() error { return blind.Publish(path, 1) }},
			opCase{"read_model/" + root, func() error { _, _, err := blind.ReadModel(path); return err }})
	}

	var out strings.Builder
	for _, tc := range cases {
		var newest uint64
		if ds := e.RetainedDenials(1); len(ds) > 0 {
			newest = ds[0].Corr
		}
		if err := tc.call(); err == nil {
			t.Fatalf("%s: allowed, want a denial", tc.name)
		}
		ds := e.RetainedDenials(1)
		if len(ds) == 0 || ds[0].Corr == newest {
			t.Fatalf("%s: no denial retained", tc.name)
		}
		call, ok := e.RetainedDenial(ds[0].Corr)
		if !ok {
			t.Fatalf("%s: retained denial %d not found", tc.name, ds[0].Corr)
		}
		fmt.Fprintf(&out, "== %s\n%s", tc.name, renderCall(call))
	}
	compareGolden(t, "opcalls", []byte(out.String()))
}
