package permengine

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// goldenEngine is the fixed engine behind the endpoint goldens: three
// granted tokens (a three-clause filter with a nested OR and a NOT, a
// one-clause filter, an unconditional grant), one provenance note, and a
// history at heat sampling 1 that ends with one retained denial of each
// kind. It returns the denials' correlation IDs in history order.
func goldenEngine(t *testing.T) (corrs []uint64, sampledBefore uint64) {
	t.Helper()
	heatTestSampling(t)
	prevAudit := audit.SetEnabled(true)
	sampledBefore = heatSampled.Load()
	e := New(nil)
	unreg := RegisterEngine("golden", e)
	t.Cleanup(func() {
		unreg()
		audit.SetEnabled(prevAudit)
	})
	// Drain what earlier tests left in the journal, so no event of the
	// history below is dropped on a full shard.
	audit.Default().Flush()
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_PRIORITY 100 AND ACTION FORWARD AND (OWN_FLOWS OR NOT IP_DST 10.13.0.0 MASK 255.255.0.0)\n"+
			"PERM read_statistics LIMITING PORT_LEVEL\n"+
			"PERM visible_topology").Set())
	e.SetProvenance("m", []string{
		"[narrowed] priority bound: manifest requested unbounded priority (repaired: MAX_PRIORITY 100)",
	})

	insert := func(dst of.IPv4, prio uint16, owner string, actions ...of.Action) *core.Call {
		c := insertFlowCall("m", dst, actions)
		c.Priority = prio
		c.FlowOwner, c.HasFlowOwner = owner, true
		return c
	}
	inside, outside := of.IPv4FromOctets(10, 13, 0, 1), of.IPv4FromOctets(10, 0, 0, 1)
	check := func(c *core.Call, wantAllowed bool) {
		t.Helper()
		if !wantAllowed {
			c.Corr = audit.NextCorr()
			corrs = append(corrs, c.Corr)
		}
		if err := e.Check(c); (err == nil) != wantAllowed {
			t.Fatalf("Check(%s) = %v, want allowed=%v", c, err, wantAllowed)
		}
	}
	for i := 0; i < 3; i++ {
		check(insert(outside, 50, "", of.Output(1)), true)
	}
	check(insert(inside, 50, "m", of.Output(1)), true)
	check(&core.Call{App: "m", Token: core.TokenReadStatistics, StatsLevel: of.StatsPort}, true)
	check(&core.Call{App: "m", Token: core.TokenVisibleTopology, Switches: []of.DPID{1}}, true)
	// One denial per clause, then the two that never reach a clause.
	check(insert(outside, 200, "", of.Output(1)), false)
	check(insert(outside, 50, "", of.Drop()), false)
	check(insert(inside, 50, "other", of.Output(1)), false)
	check(&core.Call{App: "m", Token: core.TokenHostNetwork}, false)
	check(&core.Call{App: "ghost", Token: core.TokenInsertFlow}, false)
	audit.Default().Flush()
	return corrs, sampledBefore
}

var (
	reTime    = regexp.MustCompile(`"time": "[^"]*"`)
	reSeq     = regexp.MustCompile(`"seq": \d+`)
	reCorr    = regexp.MustCompile(`"corr": (\d+)`)
	reSampled = regexp.MustCompile(`"sampled_checks": (\d+)`)
	reLatency = regexp.MustCompile(`(?s)"latency": \{.*?\}`)
	reNumber  = regexp.MustCompile(`: (\d+)`)
)

// normalise replaces what legitimately differs between runs: wall-clock
// times, journal sequence numbers, the process-wide corr and
// sampled-check counters (rebased to this engine's history), and which
// latency bracket a clause evaluation happened to land in (only the
// bracket sum is stable).
func normalise(body []byte, corrs []uint64, sampledBefore uint64) []byte {
	body = reTime.ReplaceAll(body, []byte(`"time": "T"`))
	body = reSeq.ReplaceAll(body, []byte(`"seq": 0`))
	body = reCorr.ReplaceAllFunc(body, func(m []byte) []byte {
		n, _ := strconv.ParseUint(string(reCorr.FindSubmatch(m)[1]), 10, 64)
		for i, c := range corrs {
			if c == n {
				return []byte(fmt.Sprintf(`"corr": "#%d"`, i+1))
			}
		}
		return m
	})
	body = reSampled.ReplaceAllFunc(body, func(m []byte) []byte {
		n, _ := strconv.ParseUint(string(reSampled.FindSubmatch(m)[1]), 10, 64)
		return []byte(fmt.Sprintf(`"sampled_checks": %d`, n-sampledBefore))
	})
	return reLatency.ReplaceAllFunc(body, func(m []byte) []byte {
		var sum uint64
		for _, sm := range reNumber.FindAllSubmatch(m, -1) {
			n, _ := strconv.ParseUint(string(sm[1]), 10, 64)
			sum += n
		}
		return []byte(fmt.Sprintf(`"latency": "sum=%d"`, sum))
	})
}

// TestEndpointGoldens byte-compares /heat and the three /explain
// surfaces over the fixed engine against testdata/*.golden
// (go test -run TestEndpointGoldens -update rewrites them).
func TestEndpointGoldens(t *testing.T) {
	corrs, sampledBefore := goldenEngine(t)
	postDeny := `{"engine":"golden","app":"m","token":"insert_flow","dpid":1,` +
		`"match":{"IP_DST":"10.13.0.1"},"actions":["OUTPUT:1"],"priority":50,"flow_owner":"other"}`
	cases := []struct {
		name, method, target, body string
		status                     int
	}{
		{"heat", http.MethodGet, "/heat?engine=golden", "", http.StatusOK},
		{"heat_app", http.MethodGet, "/heat?engine=golden&app=nobody", "", http.StatusOK},
		{"explain_index", http.MethodGet, "/explain?engine=golden", "", http.StatusOK},
		{"explain_corr_clause0", http.MethodGet, fmt.Sprintf("/explain?engine=golden&corr=%d", corrs[0]), "", http.StatusOK},
		{"explain_corr_clause2", http.MethodGet, fmt.Sprintf("/explain?engine=golden&corr=%d", corrs[2]), "", http.StatusOK},
		{"explain_corr_ungranted", http.MethodGet, fmt.Sprintf("/explain?engine=golden&corr=%d", corrs[3]), "", http.StatusOK},
		{"explain_corr_no_manifest", http.MethodGet, fmt.Sprintf("/explain?engine=golden&corr=%d", corrs[4]), "", http.StatusOK},
		{"explain_corr_unknown", http.MethodGet, "/explain?engine=golden&corr=18446744073709551615", "", http.StatusNotFound},
		{"explain_post_deny", http.MethodPost, "/explain", postDeny, http.StatusOK},
		{"explain_post_allow", http.MethodPost, "/explain",
			strings.Replace(postDeny, `"flow_owner":"other"`, `"flow_owner":"m"`, 1), http.StatusOK},
		{"explain_post_unconditional", http.MethodPost, "/explain",
			`{"engine":"golden","app":"m","token":"visible_topology","switches":[1,2]}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			if strings.HasPrefix(tc.target, "/heat") {
				handleHeat(rec, req)
			} else {
				handleExplain(rec, req)
			}
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			got := normalise(rec.Body.Bytes(), corrs, sampledBefore)
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s\n--- got\n%s\n--- want\n%s", tc.target, path, got, want)
			}
		})
	}
}
