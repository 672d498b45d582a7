package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
)

// refCallString is the fmt-based Call.String that AppendTo replaced, kept
// only as the reference the live one must match byte for byte.
func refCallString(c *core.Call) string {
	s := fmt.Sprintf("%s[%s]", c.Token, c.App)
	if c.HasDPID {
		s += fmt.Sprintf(" dpid=%d", uint64(c.DPID))
	}
	if c.Match != nil {
		s += " " + c.Match.String()
	}
	if len(c.Actions) > 0 {
		s += " actions=" + of.ActionsString(c.Actions)
	}
	if c.HasHostIP {
		s += fmt.Sprintf(" host=%s:%d", c.HostIP, c.HostPort)
	}
	return s
}

// TestCallString pins a denial's rendering of a call — the text and the
// one allocation, the string itself — and holds random calls to the
// reference renderer.
func TestCallString(t *testing.T) {
	insert := &core.Call{
		Token: core.TokenInsertFlow, App: "router", HasDPID: true, DPID: 3,
		Match: of.NewMatch().Set(of.FieldEthType, 0x0800).SetMasked(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 13, 0, 0)), uint64(of.PrefixMask(16))).
			Set(of.FieldEthSrc, 0x0200000000ab).Set(of.FieldTPDst, 22),
		Actions: []of.Action{of.Output(2), of.SetField(of.FieldVLAN, 0x1f), of.Output(of.PortController)},
	}
	connect := &core.Call{Token: core.TokenHostNetwork, App: "leaker", HasHostIP: true, HostIP: of.IPv4FromOctets(203, 0, 113, 9), HostPort: 80}
	for _, c := range []struct {
		call *core.Call
		want string
	}{
		{insert, "insert_flow[router] dpid=3 match(ETH_SRC=02:00:00:00:00:ab,ETH_TYPE=2048,IP_DST=10.13.0.0/255.255.0.0,TCP_DST=22) actions=output:2,set(VLAN_ID=1f),output:CONTROLLER"},
		{connect, "host_network[leaker] host=203.0.113.9:80"},
		{&core.Call{Token: core.TokenReadFlowTable, App: "mon", HasDPID: true, DPID: 1, Match: of.NewMatch()}, "read_flow_table[mon] dpid=1 match(*)"},
		{&core.Call{App: "x"}, "token(0)[x]"},
	} {
		if got := c.call.String(); got != c.want {
			t.Errorf("String() = %q\nwant       %q", got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = insert.String() }); n != 1 {
		t.Errorf("Call.String allocates %v times, want 1 (the string)", n)
	}

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		c := &core.Call{
			Token: core.Token(rng.Intn(20)), App: fmt.Sprintf("app%d", rng.Intn(100)),
			HasDPID: rng.Intn(2) == 0, DPID: of.DPID(rng.Uint64()),
			HasHostIP: rng.Intn(2) == 0, HostIP: of.IPv4(rng.Uint32()), HostPort: uint16(rng.Intn(1 << 16)),
		}
		if rng.Intn(2) == 0 {
			c.Match = of.NewMatch().Set(of.FieldTPDst, uint64(rng.Intn(1<<16))).SetMasked(of.FieldIPSrc, rng.Uint64(), rng.Uint64())
		}
		for k := rng.Intn(3); k > 0; k-- {
			c.Actions = append(c.Actions, of.Output(uint16(rng.Intn(100))))
		}
		if got, want := c.String(), refCallString(c); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}
