package permlang

import (
	"math/rand"
	"strings"
	"testing"
)

// corpus of valid sources to mutate.
var fuzzCorpus = []string{
	"PERM read_flow_table LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0",
	"PERM insert_flow LIMITING WILDCARD IP_DST 255.255.255.0",
	"PERM insert_flow LIMITING (ACTION FORWARD AND OWN_FLOWS) OR MAX_PRIORITY 10",
	"PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS",
	"PERM visible_topology LIMITING SWITCH {1,2} LINK {1-2}",
	"PERM visible_topology LIMITING VIRTUAL {{1,2} AS 100, {3} AS 101}",
	"PERM send_pkt_out LIMITING FROM_PKT_IN\nPERM read_statistics LIMITING PORT_LEVEL",
	"PERM network_access LIMITING AdminRange",
	"PERM pkt_in_event\nBUDGET CPU_MS_PER_SEC 250\nBUDGET MAX_GOROUTINES 4",
}

// TestParseFuzzNoPanics mutates valid manifests; the parser must return
// an error or a manifest, never panic.
func TestParseFuzzNoPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	alphabet := []byte("PERMLIITNG(){},-<>=0123456789. ABCxyz_\n\\\"")
	for _, src := range fuzzCorpus {
		for i := 0; i < 500; i++ {
			mutated := []byte(src)
			for j := 0; j < 1+r.Intn(5); j++ {
				switch r.Intn(3) {
				case 0: // flip
					mutated[r.Intn(len(mutated))] = alphabet[r.Intn(len(alphabet))]
				case 1: // delete
					pos := r.Intn(len(mutated))
					mutated = append(mutated[:pos], mutated[pos+1:]...)
					if len(mutated) == 0 {
						mutated = []byte("P")
					}
				default: // insert
					pos := r.Intn(len(mutated))
					mutated = append(mutated[:pos],
						append([]byte{alphabet[r.Intn(len(alphabet))]}, mutated[pos:]...)...)
				}
			}
			//nolint:errcheck // error or success both acceptable
			Parse(string(mutated))
		}
	}
}

// TestParsePrintFixpoint: printing a parsed manifest and reparsing yields
// the same rendering (printer/parser fixpoint over the corpus).
func TestParsePrintFixpoint(t *testing.T) {
	for _, src := range fuzzCorpus {
		if strings.Contains(src, "AdminRange") {
			continue // macros print as bare identifiers; still covered below
		}
		m1, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		m2, err := Parse(m1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", m1.String(), err)
		}
		if m1.String() != m2.String() {
			t.Errorf("not a fixpoint:\n1: %s\n2: %s", m1, m2)
		}
	}
	// Macro manifests round-trip too.
	m1 := MustParse("PERM network_access LIMITING AdminRange")
	m2 := MustParse(m1.String())
	if m1.String() != m2.String() || len(m2.Macros()) != 1 {
		t.Error("macro manifest not stable")
	}
}

// marketCorpus holds the manifests the app-market ships in signed
// release packages (examples/appstore and the market tests).
var marketCorpus = []string{
	// l2switch@1.0.0 — the canonical learning-switch release.
	"PERM pkt_in_event\nPERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS\nPERM send_pkt_out LIMITING FROM_PKT_IN\n",
	// tenant-monitor@1.0.0 — stub macros plus an admin IP range.
	"PERM visible_topology LIMITING LocalTopo\nPERM read_statistics\nPERM network_access LIMITING AdminRange\nPERM insert_flow\n",
	// load-balancer@1.0.0 — wildcard flows, port-level statistics.
	"PERM pkt_in_event\nPERM insert_flow LIMITING WILDCARD IP_DST 255.255.255.0\nPERM send_pkt_out LIMITING FROM_PKT_IN\nPERM read_statistics LIMITING PORT_LEVEL\n",
	// The repaired-boundary shape the market e2e test exercises.
	"PERM pkt_in_event\nPERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0\n",
	// Degenerate but legal inputs.
	"",
	"# only a comment\n",
}

// FuzzParseManifest is the native fuzz target behind `make fuzz-smoke`.
// The seeds extend fuzzCorpus with marketCorpus, so coverage-guided
// mutation starts from what a hostile vendor would actually upload. The
// contract under fuzz: the parser never panics, it accepts and rejects
// what the oracle does (the same tree and rendering, or the same
// SyntaxError), and anything it accepts survives a render → reparse
// round trip.
func FuzzParseManifest(f *testing.F) {
	for _, s := range append(append([]string(nil), fuzzCorpus...), marketCorpus...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkOracle(t, src)
		m, err := Parse(src)
		if err != nil {
			return
		}
		rendered := m.String()
		m2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering does not reparse: %v\nsource: %q\nrendered: %q", err, src, rendered)
		}
		if rendered != m2.String() {
			t.Fatalf("render/reparse not a fixpoint\nsource: %q\n1: %q\n2: %q", src, rendered, m2.String())
		}
	})
}
