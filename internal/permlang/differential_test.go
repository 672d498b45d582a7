package permlang

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// checkOracle holds Parse and ParseFilter to the oracle on src: an
// accepted source gives the oracle's tree and rendering, a rejected one
// the oracle's SyntaxError line, column and message.
func checkOracle(t *testing.T, src string) {
	t.Helper()
	m, err := Parse(src)
	om, oerr := oracleParse(src)
	sameError(t, "Parse", src, err, oerr)
	if err == nil && oerr == nil {
		if !reflect.DeepEqual(m, om) {
			t.Fatalf("Parse(%q) builds another tree than the oracle:\n%s\noracle:\n%s", src, m, om)
		}
		if m.String() != om.String() {
			t.Fatalf("Parse(%q) renders %q, the oracle %q", src, m, om)
		}
	}
	e, err := ParseFilter(src)
	oe, oerr := oracleParseFilter(src)
	sameError(t, "ParseFilter", src, err, oerr)
	if err == nil && oerr == nil && (!reflect.DeepEqual(e, oe) || e.String() != oe.String()) {
		t.Fatalf("ParseFilter(%q) = %s, the oracle %s", src, e, oe)
	}
}

func sameError(t *testing.T, fn, src string, err, oerr error) {
	t.Helper()
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s(%q): error %v, the oracle %v", fn, src, err, oerr)
	}
	if err == nil {
		return
	}
	se, ok := err.(*SyntaxError)
	ose, ook := oerr.(*SyntaxError)
	if !ok || !ook {
		t.Fatalf("%s(%q): errors %T and %T, want two SyntaxErrors", fn, src, err, oerr)
	}
	if *se != *ose {
		t.Fatalf("%s(%q): %v, the oracle %v", fn, src, se, ose)
	}
}

// TestParseMatchesOracle runs the differential check over the fuzz and
// market seeds, manifests of the benchmark corpus' shape and seeded
// mutations of all of them.
func TestParseMatchesOracle(t *testing.T) {
	seeds := append(append([]string(nil), fuzzCorpus...), marketCorpus...)
	for _, size := range [][2]int{{1, 8}, {5, 13}, {15, 18}} {
		seeds = append(seeds, corpusManifest(size[0], size[1]))
	}
	seeds = append(seeds,
		"PERM process_runtime\nPERM host_network LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0\n",
		"perm Insert_Flow limiting not (ip_dst 10.0.0.1 or nw_dst 10.0.0.2 mask 255.0.0.0) and own_flows",
		"PERM insert_flow LIMITING MODIFY IP_DST OR MODIFY OR MAX_RULE_COUNT 18446744073709551615",
		"PERM insert_flow LIMITING EVENT_INTERCEPTION OR MODIFY_EVENT_ORDER OR ARBITRARY OR FLOW_LEVEL OR SWITCH_LEVEL OR DROP",
		"PERM insert_flow LIMITING MIN_PRIORITY 0 AND MAX_PRIORITY 65535 AND IN_PORT 3 AND ETH_TYPE 2048",
		"PERM visible_topology LIMITING VIRTUAL {{1,2} AS 100, {} AS 101} LINK {1-2, 3-4}\r\nBUDGET max_goroutines 4",
		"PERM visible_topology LIMITING SWITCH 1,2 LINK {}",
		"PERM insert_flow LIMITING \"str\ning\"",
		"PERM insert_flow LIMITING OR AND NOT MASK",
	)
	for _, src := range seeds {
		checkOracle(t, src)
	}
	r := rand.New(rand.NewSource(51))
	alphabet := []byte("PERMLIITNGORANDMASK(){},-<>=0123456789.. \n\t\\\"#/_xyzIP")
	for _, src := range seeds {
		for i := 0; i < 300; i++ {
			mutated := []byte(src)
			for j := 0; j < 1+r.Intn(4); j++ {
				pos := 0
				if len(mutated) > 0 {
					pos = r.Intn(len(mutated))
				}
				switch r.Intn(3) {
				case 0:
					if len(mutated) > 0 {
						mutated[pos] = alphabet[r.Intn(len(alphabet))]
					}
				case 1:
					if len(mutated) > 0 {
						mutated = append(mutated[:pos], mutated[pos+1:]...)
					}
				default:
					mutated = append(mutated[:pos], append([]byte{alphabet[r.Intn(len(alphabet))]}, mutated[pos:]...)...)
				}
			}
			checkOracle(t, string(mutated))
		}
	}
}

// TestParseErrorPositions pins the line, column and message of malformed
// manifests: the lexer derives a position from the byte offset and the
// line's start, so these check that derivation across comments, line
// continuations, strings that span lines and values computed in the
// scan. Each must also match the oracle.
func TestParseErrorPositions(t *testing.T) {
	tests := []struct {
		name, src string
		line, col int
		msg       string
	}{
		{"bad octet", "PERM insert_flow LIMITING IP_DST 10.256.0.1", 1, 44, `bad IPv4 octet "256" in "10.256.0.1"`},
		{"first bad octet named", "PERM insert_flow LIMITING IP_DST 10.0.999.300", 1, 46, `bad IPv4 octet "999" in "10.0.999.300"`},
		{"last octet bad", "PERM insert_flow LIMITING IP_DST 1.2.3.0256", 1, 44, `bad IPv4 octet "0256" in "1.2.3.0256"`},
		{"long zero octet", "PERM insert_flow LIMITING IP_DST 1.2.3.0000000000000000000000255 X", 1, 66, `expected PERM, found identifier "X"`},
		{"integer overflow", "PERM insert_flow LIMITING MAX_RULE_COUNT 18446744073709551616", 1, 62, `bad integer "18446744073709551616"`},
		{"long integer", "PERM insert_flow LIMITING MAX_PRIORITY 0000000000000000000000000065535 OR", 1, 74, `expected a filter, found end of input ""`},
		{"unterminated string", "PERM insert_flow LIMITING \"oops", 1, 32, "unterminated string"},
		{"unterminated string over lines", "PERM insert_flow\nLIMITING \"a\nbc\r\nd", 4, 2, "unterminated string"},
		{"malformed number", "PERM insert_flow LIMITING IP_DST 10.0.0", 1, 40, `malformed number "10.0.0"`},
		{"five parts", "PERM insert_flow LIMITING IP_DST 1.2.3.4.5", 1, 43, `malformed number "1.2.3.4.5"`},
		{"after comments", "# header\n// more\nPERM insert_flow # why\nLIMITING IP_DST 1.2", 4, 20, `malformed number "1.2"`},
		{"after continuation", "PERM insert_flow LIMITING OWN_FLOWS OR \\\n  IP_DST 10.0.0.0 MASK 300.0.0.0", 2, 33, `bad IPv4 octet "300" in "300.0.0.0"`},
		{"unexpected character", "PERM insert_flow\r\n\tLIMITING SWITCH 1 LINK 1+2", 2, 26, `unexpected character "+"`},
		{"unknown token after comment", "// c\n  PERM fly", 2, 8, `unknown permission token "fly"`},
		{"missing value after string", "PERM insert_flow LIMITING IP_DST \"x\ny\" 3", 1, 34, `expected a value, found string "x\ny"`},
		{"budget out of range", "BUDGET CPU_MS_PER_SEC 9223372036854775808", 1, 23, "budget value 9223372036854775808 out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkOracle(t, tt.src)
			_, err := Parse(tt.src)
			se, ok := err.(*SyntaxError)
			if !ok {
				t.Fatalf("err = %v, want a SyntaxError", err)
			}
			if se.Line != tt.line || se.Col != tt.col || se.Msg != tt.msg {
				t.Errorf("got %d:%d %q, want %d:%d %q", se.Line, se.Col, se.Msg, tt.line, tt.col, tt.msg)
			}
		})
	}
}

// TestKeywordsInAnyCase checks the keyword table: every keyword is found
// in upper, lower and mixed case, and identifiers that are no keyword,
// field and token names among them, are not.
func TestKeywordsInAnyCase(t *testing.T) {
	for kw := kwPerm; kw < numKeywords; kw++ {
		name := keywordNames[kw]
		mixed := []byte(strings.ToLower(name))
		mixed[0] = name[0]
		for _, spelling := range []string{name, strings.ToLower(name), string(mixed)} {
			if got := lookupKeyword(spelling); got != kw {
				t.Errorf("lookupKeyword(%q) = %d, want %d", spelling, got, kw)
			}
		}
	}
	for _, ident := range []string{"", "O", "ORR", "ANDS", "PERMS", "IP_DST", "MASK_", "insert_flow", "EVENT_INTERCEPTIONS", "SWITCH_LEVE", "A_"} {
		if got := lookupKeyword(ident); got != kwNone {
			t.Errorf("lookupKeyword(%q) = %s, want none", ident, keywordNames[got])
		}
	}
}

// TestParseAllocs pins what Parse allocates for the large corpus
// manifest: the manifest, its permission slice and one slab per node kind
// it uses (predicate, priority and ownership leaves, ANDs and ORs).
// A count that grows is a node that became a heap object of its own.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops items at random under it")
	}
	src := corpusManifest(15, 18)
	if got := testing.AllocsPerRun(100, func() { MustParse(src) }); got != 7 {
		t.Errorf("Parse of the large corpus manifest: %.1f allocations, want 7", got)
	}
}
