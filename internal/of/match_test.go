package of

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestPrefixMask(t *testing.T) {
	tests := []struct {
		bits int
		want IPv4
	}{
		{0, 0},
		{8, 0xff000000},
		{16, 0xffff0000},
		{24, 0xffffff00},
		{32, 0xffffffff},
		{-3, 0},
		{40, 0xffffffff},
	}
	for _, tt := range tests {
		if got := PrefixMask(tt.bits); got != tt.want {
			t.Errorf("PrefixMask(%d) = %x, want %x", tt.bits, got, tt.want)
		}
	}
}

func TestIPv4Formatting(t *testing.T) {
	ip := IPv4FromOctets(10, 13, 0, 7)
	if got := ip.String(); got != "10.13.0.7" {
		t.Errorf("String() = %q, want 10.13.0.7", got)
	}
	if !ip.InSubnet(IPv4FromOctets(10, 13, 0, 0), PrefixMask(16)) {
		t.Error("10.13.0.7 should be in 10.13.0.0/16")
	}
	if ip.InSubnet(IPv4FromOctets(10, 14, 0, 0), PrefixMask(16)) {
		t.Error("10.13.0.7 should not be in 10.14.0.0/16")
	}
}

// TestAppendIPv4EveryOctet renders every octet value in every position
// against strconv's decimal rendering.
func TestAppendIPv4EveryOctet(t *testing.T) {
	for v := 0; v < 256; v++ {
		o := strconv.Itoa(v)
		for pos := 0; pos < 4; pos++ {
			octets := [4]byte{1, 20, 255, 0}
			want := [4]string{"1", "20", "255", "0"}
			octets[pos], want[pos] = byte(v), o
			ip := IPv4FromOctets(octets[0], octets[1], octets[2], octets[3])
			if got := string(AppendIPv4([]byte("x"), ip)); got != "x"+strings.Join(want[:], ".") {
				t.Fatalf("AppendIPv4(%d.%d.%d.%d) = %q", octets[0], octets[1], octets[2], octets[3], got)
			}
		}
	}
}

func TestMACRoundTrip(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x42}
	if got := MACFromUint64(m.Uint64()); got != m {
		t.Errorf("round trip = %v, want %v", got, m)
	}
	if got := m.String(); got != "de:ad:be:ef:00:42" {
		t.Errorf("String() = %q", got)
	}
	if !(MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}).IsBroadcast() {
		t.Error("broadcast MAC not detected")
	}
	if m.IsBroadcast() {
		t.Error("unicast MAC misdetected as broadcast")
	}
}

func TestParseField(t *testing.T) {
	tests := []struct {
		name string
		want Field
		ok   bool
	}{
		{"IP_SRC", FieldIPSrc, true},
		{"IP_DST", FieldIPDst, true},
		{"TCP_SRC", FieldTPSrc, true},
		{"NW_DST", FieldIPDst, true},
		{"DL_TYPE", FieldEthType, true},
		{"BOGUS", 0, false},
	}
	for _, tt := range tests {
		got, ok := ParseField(tt.name)
		if ok != tt.ok || got != tt.want {
			t.Errorf("ParseField(%q) = (%v,%v), want (%v,%v)", tt.name, got, ok, tt.want, tt.ok)
		}
	}
}

func TestMatchSetGetWildcard(t *testing.T) {
	m := NewMatch()
	if !m.IsWildcarded(FieldIPDst) {
		t.Fatal("new match should wildcard everything")
	}
	m.SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 13, 0, 0)), uint64(PrefixMask(16)))
	v, mask := m.Get(FieldIPDst)
	if IPv4(v) != IPv4FromOctets(10, 13, 0, 0) || IPv4(mask) != PrefixMask(16) {
		t.Errorf("Get = %x/%x", v, mask)
	}
	// Values outside the mask must be canonicalized away.
	m.SetMasked(FieldIPSrc, uint64(IPv4FromOctets(10, 13, 9, 9)), uint64(PrefixMask(16)))
	v, _ = m.Get(FieldIPSrc)
	if IPv4(v) != IPv4FromOctets(10, 13, 0, 0) {
		t.Errorf("value not masked: %s", IPv4(v))
	}
	// Zero mask removes the constraint.
	m.SetMasked(FieldIPSrc, 1, 0)
	if !m.IsWildcarded(FieldIPSrc) {
		t.Error("zero mask should wildcard the field")
	}
}

func TestMatchMatchesPacket(t *testing.T) {
	pkt := NewTCPPacket(
		MAC{1}, MAC{2},
		IPv4FromOctets(10, 13, 1, 5), IPv4FromOctets(192, 168, 0, 9),
		43210, 80, TCPFlagSYN,
	)
	tests := []struct {
		name  string
		match func() *Match
		want  bool
	}{
		{"wildcard", NewMatch, true},
		{"dst subnet hit", func() *Match {
			return NewMatch().SetMasked(FieldIPDst, uint64(IPv4FromOctets(192, 168, 0, 0)), uint64(PrefixMask(16)))
		}, true},
		{"dst subnet miss", func() *Match {
			return NewMatch().SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 0, 0, 0)), uint64(PrefixMask(8)))
		}, false},
		{"port exact", func() *Match {
			return NewMatch().Set(FieldTPDst, 80)
		}, true},
		{"in-port", func() *Match {
			return NewMatch().Set(FieldInPort, 3)
		}, true},
		{"in-port miss", func() *Match {
			return NewMatch().Set(FieldInPort, 4)
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.match().MatchesPacket(pkt, 3); got != tt.want {
				t.Errorf("MatchesPacket = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchSubsumes(t *testing.T) {
	wide := NewMatch().SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 13, 0, 0)), uint64(PrefixMask(16)))
	narrow := NewMatch().
		SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 13, 7, 0)), uint64(PrefixMask(24))).
		Set(FieldTPDst, 80)
	if !wide.Subsumes(narrow) {
		t.Error("/16 should subsume /24 with extra constraint")
	}
	if narrow.Subsumes(wide) {
		t.Error("narrow must not subsume wide")
	}
	if !NewMatch().Subsumes(narrow) {
		t.Error("wildcard subsumes everything")
	}
	other := NewMatch().SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 14, 0, 0)), uint64(PrefixMask(16)))
	if wide.Subsumes(other) || other.Subsumes(wide) {
		t.Error("disjoint subnets must not subsume each other")
	}
}

func TestMatchOverlaps(t *testing.T) {
	a := NewMatch().SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 13, 0, 0)), uint64(PrefixMask(16)))
	b := NewMatch().Set(FieldTPDst, 80)
	if !a.Overlaps(b) {
		t.Error("constraints on different fields overlap")
	}
	c := NewMatch().SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 14, 0, 0)), uint64(PrefixMask(16)))
	if a.Overlaps(c) {
		t.Error("disjoint subnets must not overlap")
	}
}

func TestMatchEqualCloneKey(t *testing.T) {
	a := NewMatch().
		SetMasked(FieldIPDst, uint64(IPv4FromOctets(10, 13, 0, 0)), uint64(PrefixMask(16))).
		Set(FieldEthType, uint64(EthTypeIPv4))
	b := a.Clone()
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatal("clone should be equal with identical key")
	}
	b.Set(FieldTPDst, 443)
	if a.Equal(b) || a.Key() == b.Key() {
		t.Error("modified clone should differ")
	}
	if a.IsWildcarded(FieldTPDst) != true {
		t.Error("mutating clone must not touch original")
	}
}

// randomMatch builds a random match for property tests.
func randomMatch(r *rand.Rand) *Match {
	m := NewMatch()
	for _, f := range AllFields {
		if r.Intn(3) == 0 {
			bits := FieldBits(f)
			mask := r.Uint64() & FullMask(f)
			if r.Intn(2) == 0 { // often use prefix masks, as real rules do
				mask = FullMask(f) << uint(r.Intn(bits)) & FullMask(f)
			}
			m.SetMasked(f, r.Uint64(), mask)
		}
	}
	return m
}

// randomPacketFor draws a packet that satisfies m where constrained and is
// random elsewhere.
func randomPacketFor(m *Match, r *rand.Rand) (*Packet, uint16) {
	p := &Packet{}
	inPort := uint16(r.Intn(48))
	for _, f := range AllFields {
		v := r.Uint64() & FullMask(f)
		if mask := m.masks[f]; mask != 0 {
			v = (v &^ mask) | m.values[f]
		}
		if f == FieldInPort {
			inPort = uint16(v)
			continue
		}
		p.SetFieldValue(f, v)
	}
	return p, inPort
}

func TestPropertySubsumesImpliesMatch(t *testing.T) {
	// If wide subsumes narrow, every packet satisfying narrow satisfies wide.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		wide := randomMatch(r)
		narrow := wide.Clone()
		// Narrow further with extra constraints.
		extra := randomMatch(r)
		for _, f := range extra.ConstrainedFields() {
			ev, em := extra.Get(f)
			nv, nm := narrow.Get(f)
			narrow.SetMasked(f, nv|(ev&^nm), nm|em)
		}
		if !wide.Subsumes(narrow) {
			// Narrowing by OR-ing masks keeps constrained bit values, so
			// subsumption must hold.
			t.Fatalf("iteration %d: widened match does not subsume", i)
		}
		pkt, inPort := randomPacketFor(narrow, r)
		if !narrow.MatchesPacket(pkt, inPort) {
			t.Fatalf("iteration %d: generated packet does not satisfy narrow", i)
		}
		if !wide.MatchesPacket(pkt, inPort) {
			t.Fatalf("iteration %d: subsumption violated by packet %v", i, pkt)
		}
	}
}

func TestPropertyMatchFromPacketMatches(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pkt := NewTCPPacket(
			MACFromUint64(r.Uint64()), MACFromUint64(r.Uint64()),
			IPv4(srcIP), IPv4(dstIP), srcPort, dstPort, TCPFlagACK,
		)
		inPort := uint16(r.Intn(100))
		return MatchFromPacket(pkt, inPort).MatchesPacket(pkt, inPort)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubsumesReflexiveTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a := randomMatch(r)
		if !a.Subsumes(a) {
			t.Fatal("subsumes not reflexive")
		}
	}
	// Transitivity over a chain built by repeated narrowing.
	for i := 0; i < 500; i++ {
		a := randomMatch(r)
		b := a.Clone().Set(FieldEthType, uint64(EthTypeIPv4))
		c := b.Clone().Set(FieldTPDst, uint64(r.Intn(65536)))
		if a.Subsumes(b) && b.Subsumes(c) && !a.Subsumes(c) {
			t.Fatal("subsumes not transitive")
		}
	}
}

func TestActionHelpers(t *testing.T) {
	acts := []Action{Output(3), SetField(FieldIPDst, 42), Drop(), Flood(), Output(PortController)}
	got := ActionsString(acts)
	want := "output:3,set(IP_DST=2a),drop,flood,output:CONTROLLER"
	if got != want {
		t.Errorf("ActionsString = %q, want %q", got, want)
	}
	if ActionsString(nil) != "drop" {
		t.Error("empty action list should render as drop")
	}
	cloned := CloneActions(acts)
	if !reflect.DeepEqual(cloned, acts) {
		t.Error("clone differs")
	}
	cloned[0].Port = 9
	if acts[0].Port == 9 {
		t.Error("clone aliases original")
	}
	if CloneActions(nil) != nil {
		t.Error("nil clone should stay nil")
	}
}

func TestPacketFieldRoundTrip(t *testing.T) {
	p := &Packet{}
	for _, f := range AllFields {
		if f == FieldInPort {
			continue
		}
		want := uint64(0xa5a5a5a5a5a5a5a5) & FullMask(f)
		p.SetFieldValue(f, want)
		if got := p.FieldValue(f, 0); got != want {
			t.Errorf("field %s: got %x, want %x", f, got, want)
		}
	}
}

// TestFieldNames covers every field and alias: a canonical name parses
// only as spelled, an alias in any case, and an unknown field renders as
// FIELD(n).
func TestFieldNames(t *testing.T) {
	canonical := map[Field]string{
		FieldInPort: "IN_PORT", FieldEthSrc: "ETH_SRC", FieldEthDst: "ETH_DST", FieldEthType: "ETH_TYPE",
		FieldVLAN: "VLAN_ID", FieldVLANPriority: "VLAN_PCP", FieldIPSrc: "IP_SRC", FieldIPDst: "IP_DST",
		FieldIPProto: "IP_PROTO", FieldIPTOS: "IP_TOS", FieldTPSrc: "TCP_SRC", FieldTPDst: "TCP_DST",
	}
	if len(canonical) != len(AllFields) {
		t.Fatalf("table covers %d fields, AllFields lists %d", len(canonical), len(AllFields))
	}
	for _, f := range AllFields {
		name := canonical[f]
		if f.String() != name {
			t.Errorf("Field(%d).String() = %q, want %q", f, f.String(), name)
		}
		if got, ok := ParseField(name); !ok || got != f {
			t.Errorf("ParseField(%q) = (%v,%v), want (%v,true)", name, got, ok, f)
		}
		for _, miss := range []string{strings.ToLower(name), " " + name, name + " "} {
			if got, ok := ParseField(miss); ok {
				t.Errorf("ParseField(%q) = %v: a canonical name matches only as spelled", miss, got)
			}
		}
	}
	aliases := map[string]Field{
		"NW_SRC": FieldIPSrc, "NW_DST": FieldIPDst, "UDP_SRC": FieldTPSrc, "TP_SRC": FieldTPSrc,
		"UDP_DST": FieldTPDst, "TP_DST": FieldTPDst, "DL_SRC": FieldEthSrc, "DL_DST": FieldEthDst,
		"DL_TYPE": FieldEthType,
	}
	for name, f := range aliases {
		mixed := strings.ToLower(name[:1]) + name[1:]
		for _, in := range []string{name, strings.ToLower(name), mixed} {
			if got, ok := ParseField(in); !ok || got != f {
				t.Errorf("ParseField(%q) = (%v,%v), want (%v,true)", in, got, ok, f)
			}
		}
		if got, ok := ParseField(" " + name); ok {
			t.Errorf("ParseField(%q) = %v: names are not trimmed", " "+name, got)
		}
	}
	// Alias case-insensitivity is Unicode upper-casing: ſ upper-cases to S.
	if got, ok := ParseField("dl_ſrc"); !ok || got != FieldEthSrc {
		t.Errorf(`ParseField("dl_ſrc") = (%v,%v), want (ETH_SRC,true)`, got, ok)
	}
	for _, in := range []string{"", "BOGUS", "ip-src"} {
		if got, ok := ParseField(in); ok {
			t.Errorf("ParseField(%q) = %v, want unknown", in, got)
		}
	}
	for _, f := range []Field{0, FieldTPDst + 1, 255} {
		if want := fmt.Sprintf("FIELD(%d)", uint8(f)); f.String() != want {
			t.Errorf("Field(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}

// The fmt-based renderers the append forms replaced, kept only as the
// reference the live ones must match byte for byte.

func refMatch(m *Match) string {
	fields := m.ConstrainedFields()
	if len(fields) == 0 {
		return "match(*)"
	}
	parts := make([]string, 0, len(fields))
	for _, f := range fields {
		v, mask := m.Get(f)
		switch f {
		case FieldIPSrc, FieldIPDst:
			if mask == FullMask(f) {
				parts = append(parts, fmt.Sprintf("%s=%s", f, IPv4(v)))
			} else {
				parts = append(parts, fmt.Sprintf("%s=%s/%s", f, IPv4(v), IPv4(mask)))
			}
		case FieldEthSrc, FieldEthDst:
			m := MACFromUint64(v)
			parts = append(parts, fmt.Sprintf("%s=%02x:%02x:%02x:%02x:%02x:%02x", f, m[0], m[1], m[2], m[3], m[4], m[5]))
		default:
			if mask == FullMask(f) {
				parts = append(parts, fmt.Sprintf("%s=%d", f, v))
			} else {
				parts = append(parts, fmt.Sprintf("%s=%x/%x", f, v, mask))
			}
		}
	}
	return "match(" + strings.Join(parts, ",") + ")"
}

func refAction(a Action) string {
	switch a.Type {
	case ActionOutput:
		switch a.Port {
		case PortController:
			return "output:CONTROLLER"
		case PortFlood:
			return "output:FLOOD"
		case PortInPort:
			return "output:IN_PORT"
		default:
			return fmt.Sprintf("output:%d", a.Port)
		}
	case ActionDrop:
		return "drop"
	case ActionFlood:
		return "flood"
	case ActionSetField:
		return fmt.Sprintf("set(%s=%x)", a.Field, a.Value)
	default:
		return a.Type.String()
	}
}

// TestRenderMatchesReference: random matches and action lists render as
// the fmt-based reference does.
func TestRenderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ports := []uint16{PortController, PortFlood, PortInPort}
	for i := 0; i < 20000; i++ {
		m := NewMatch()
		for _, f := range AllFields {
			switch rng.Intn(3) {
			case 1:
				m.Set(f, rng.Uint64())
			case 2:
				m.SetMasked(f, rng.Uint64(), rng.Uint64())
			}
		}
		if got, want := m.String(), refMatch(m); got != want {
			t.Fatalf("Match.String() = %q, want %q", got, want)
		}
		var acts []Action
		var parts []string
		for k := rng.Intn(4); k > 0; k-- {
			port := uint16(rng.Intn(1 << 16))
			if rng.Intn(4) == 0 {
				port = ports[rng.Intn(len(ports))]
			}
			a := Action{Type: ActionType(rng.Intn(6)), Port: port, Field: Field(rng.Intn(15)), Value: rng.Uint64() >> rng.Intn(64)}
			acts, parts = append(acts, a), append(parts, refAction(a))
		}
		want := strings.Join(parts, ",")
		if len(acts) == 0 {
			want = "drop"
		}
		if got := ActionsString(acts); got != want {
			t.Fatalf("ActionsString = %q, want %q", got, want)
		}
	}
}
