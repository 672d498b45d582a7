package sdnshield

import (
	"strings"
	"testing"
)

const scenario1ManifestSrc = `
PERM visible_topology LIMITING LocalTopo
PERM read_statistics
PERM network_access LIMITING AdminRange
PERM insert_flow
`

const scenario1PolicySrc = `
LET LocalTopo = {SWITCH 0,1 LINK 0-1}
LET AdminRange = {IP_DST 10.1.0.0 MASK 255.255.0.0}
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
`

func TestFacadeScenario1Pipeline(t *testing.T) {
	manifest, err := ParseManifest(scenario1ManifestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if macros := manifest.Macros(); len(macros) != 2 {
		t.Errorf("macros = %v", macros)
	}
	policy, err := ParsePolicy(scenario1PolicySrc)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Reconcile("monitor", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Error("scenario 1 has a mutual-exclusion violation")
	}
	if len(res.Violations) != 1 || res.Violations[0].Kind != "mutual-exclusion" {
		t.Fatalf("violations = %v", res.Violations)
	}
	if res.Violations[0].String() == "" {
		t.Error("violation rendering empty")
	}
	if res.Permissions.Has("insert_flow") {
		t.Error("insert_flow must be truncated")
	}
	if !res.Requested.Has("insert_flow") {
		t.Error("Requested must keep the pre-repair set")
	}
	if !res.Permissions.Has("network_access") { // alias for host_network
		t.Error("alias lookup failed")
	}
	if got := len(res.Permissions.Tokens()); got != 3 {
		t.Errorf("final tokens = %v", res.Permissions.Tokens())
	}

	// Admin-range connects pass; exfiltration is denied.
	okCall := APICall{App: "monitor", Permission: "host_network", HostIP: "10.1.3.4", HostPort: 443}
	if err := res.Permissions.Check(okCall); err != nil {
		t.Errorf("admin connect denied: %v", err)
	}
	leak := APICall{App: "monitor", Permission: "host_network", HostIP: "203.0.113.9", HostPort: 80}
	err = res.Permissions.Check(leak)
	if err == nil {
		t.Fatal("leak should be denied")
	}
	var denied *DeniedError
	if !strings.Contains(err.Error(), "host_network") || !asDenied(err, &denied) {
		t.Errorf("err = %v", err)
	}

	// Topology visibility honours the LocalTopo stub binding.
	if err := res.Permissions.Check(APICall{App: "monitor", Permission: "read_topology",
		SwitchSet: []uint64{0, 1}}); err != nil {
		t.Errorf("local switches denied: %v", err)
	}
	if err := res.Permissions.Check(APICall{App: "monitor", Permission: "read_topology",
		SwitchSet: []uint64{5}}); err == nil {
		t.Error("foreign switch should be hidden")
	}
}

func asDenied(err error, target **DeniedError) bool {
	d, ok := err.(*DeniedError)
	if ok {
		*target = d
	}
	return ok
}

func TestFacadeAPICallTranslation(t *testing.T) {
	manifest, err := ParseManifest(`
PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS AND MAX_PRIORITY 100 AND IP_DST 10.13.0.0 MASK 255.255.0.0
PERM read_statistics LIMITING PORT_LEVEL
PERM send_pkt_out LIMITING FROM_PKT_IN
`)
	if err != nil {
		t.Fatal(err)
	}
	perms := manifest.Permissions()

	allowed := APICall{
		App: "router", Permission: "insert_flow",
		Switch: 1, HasSwitch: true,
		IPDst: "10.13.7.7", Priority: 50,
		Actions:      []string{"forward"},
		HasFlowOwner: true,
	}
	if err := perms.Check(allowed); err != nil {
		t.Errorf("allowed insert denied: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*APICall)
	}{
		{"foreign flow", func(c *APICall) { c.FlowOwner = "firewall" }},
		{"priority too high", func(c *APICall) { c.Priority = 999 }},
		{"drop action", func(c *APICall) { c.Actions = []string{"drop"} }},
		{"outside subnet", func(c *APICall) { c.IPDst = "192.168.0.1" }},
		{"cidr outside", func(c *APICall) { c.IPDst = "10.14.0.0/16" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			call := allowed
			tt.mutate(&call)
			if err := perms.Check(call); err == nil {
				t.Error("expected denial")
			}
		})
	}

	// Stats level ordering.
	if err := perms.Check(APICall{App: "router", Permission: "read_statistics", StatsLevel: "switch"}); err != nil {
		t.Errorf("switch stats denied: %v", err)
	}
	if err := perms.Check(APICall{App: "router", Permission: "read_statistics", StatsLevel: "flow"}); err == nil {
		t.Error("flow stats should exceed PORT_LEVEL")
	}

	// Provenance.
	if err := perms.Check(APICall{App: "router", Permission: "send_packet_out",
		FromPacketIn: true, HasProvenance: true}); err != nil {
		t.Errorf("buffered pkt-out denied: %v", err)
	}
	if err := perms.Check(APICall{App: "router", Permission: "send_packet_out",
		FromPacketIn: false, HasProvenance: true}); err == nil {
		t.Error("forged pkt-out should be denied")
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := ParseManifest("PERM teleport"); err == nil {
		t.Error("bad manifest accepted")
	}
	if _, err := ParsePolicy("ASSERT"); err == nil {
		t.Error("bad policy accepted")
	}
	manifest, _ := ParseManifest("PERM insert_flow\nPERM host_network")
	perms := manifest.Permissions()
	bad := []APICall{
		{App: "a", Permission: "levitate"},
		{App: "a", Permission: "insert_flow", IPDst: "999.0.0.1"},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.0.1/99"},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.1"},
		{App: "a", Permission: "insert_flow", Actions: []string{"explode"}},
		{App: "a", Permission: "insert_flow", Actions: []string{"modify:NOPE"}},
		{App: "a", Permission: "read_statistics", StatsLevel: "cosmic"},
		{App: "a", Permission: "host_network", HostIP: "10.o.0.1"},
		// Malformed input the call is granted for must still error,
		// never read as some other allowed call.
		{App: "a", Permission: "insert_flow", IPDst: "10.0x9.0.1"},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.0.1x"},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.0.+1"},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.0.1/32junk"},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.0.1/+8"},
		{App: "a", Permission: "host_network", HostIP: "10.0x9.0.1"},
		{App: "a", Permission: "insert_flow", TCPDst: 65616},
		{App: "a", Permission: "insert_flow", TCPSrc: 65536},
		{App: "a", Permission: "insert_flow", Priority: 70000},
		{App: "a", Permission: "host_network", HostIP: "10.0.0.1", HostPort: 65616},
		{App: "a", Permission: "host_network", HostIP: "10.0.0.1", HostPort: -65456},
	}
	for _, c := range bad {
		if err := perms.Check(c); err == nil {
			t.Errorf("call %+v should error", c)
		}
	}
	// A negative port or priority is absent, not malformed.
	for _, c := range []APICall{
		{App: "a", Permission: "insert_flow", TCPSrc: -1, TCPDst: -1, Priority: -1},
		{App: "a", Permission: "insert_flow", IPDst: "10.0.0.0/0", TCPDst: 65535, Priority: 65535},
		{App: "a", Permission: "host_network", HostIP: "10.0.0.1", HostPort: 65535},
	} {
		if err := perms.Check(c); err != nil {
			t.Errorf("call %+v: %v", c, err)
		}
	}
	// Reconcile with nil policy = macro expansion only.
	m, _ := ParseManifest("PERM read_statistics")
	res, err := Reconcile("x", m, nil)
	if err != nil || !res.Clean {
		t.Errorf("nil policy reconcile = (%v, %v)", res, err)
	}
}

func TestFacadeRestrictAndRevoke(t *testing.T) {
	manifest, _ := ParseManifest("PERM insert_flow\nPERM read_statistics")
	perms := manifest.Permissions()

	// §V-A customization: append a virtual/physical topology filter.
	if err := perms.Restrict("insert_flow", "IP_DST 10.13.0.0 MASK 255.255.0.0 AND ACTION FORWARD"); err != nil {
		t.Fatal(err)
	}
	okCall := APICall{App: "t", Permission: "insert_flow",
		IPDst: "10.13.1.1", Actions: []string{"forward"}}
	if err := perms.Check(okCall); err != nil {
		t.Errorf("in-scope insert denied: %v", err)
	}
	bad := okCall
	bad.IPDst = "10.14.1.1"
	if err := perms.Check(bad); err == nil {
		t.Error("out-of-scope insert should be denied after Restrict")
	}
	bad2 := okCall
	bad2.Actions = []string{"drop"}
	if err := perms.Check(bad2); err == nil {
		t.Error("drop should be denied after Restrict")
	}

	// Errors surface.
	if err := perms.Restrict("warp", "OWN_FLOWS"); err == nil {
		t.Error("unknown token accepted")
	}
	if err := perms.Restrict("insert_flow", "IP_DST OOPS"); err == nil {
		t.Error("bad filter accepted")
	}
	if err := perms.Restrict("insert_flow", "OWN_FLOWS trailing"); err == nil {
		t.Error("trailing garbage accepted")
	}

	if err := perms.Revoke("read_statistics"); err != nil {
		t.Fatal(err)
	}
	if perms.Has("read_statistics") {
		t.Error("revoke failed")
	}
	if err := perms.Revoke("levitate"); err == nil {
		t.Error("unknown token revoke accepted")
	}
}

func TestPermissionsTokensDeterministic(t *testing.T) {
	// Two manifests listing the same permissions in different order must
	// expose identical token listings.
	srcA := "PERM read_statistics\nPERM insert_flow\nPERM visible_topology"
	srcB := "PERM visible_topology\nPERM insert_flow\nPERM read_statistics"
	var listings [][]string
	for _, src := range []string{srcA, srcB} {
		m, err := ParseManifest(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Reconcile("app", m, nil)
		if err != nil {
			t.Fatal(err)
		}
		listings = append(listings, res.Permissions.Tokens())
	}
	if strings.Join(listings[0], ",") != strings.Join(listings[1], ",") {
		t.Fatalf("Tokens() depends on manifest order: %v vs %v", listings[0], listings[1])
	}
}
