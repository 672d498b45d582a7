package bench

import (
	"fmt"
	"math/rand"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
)

// Fig5Row is one bar of Figure 5: single-core permission-check throughput
// for one API call type under one manifest complexity.
type Fig5Row struct {
	Complexity      string
	Tokens          int
	FiltersPerToken int
	API             string
	Checks          int
	NsPerCheck      float64
	ChecksPerSec    float64
	DenialRate      float64
}

// Fig5Complexities mirrors the paper's three manifests: small, medium and
// large carry 1, 5 and 15 permission tokens, each with 10–20 filters.
var Fig5Complexities = []struct {
	Name            string
	Tokens          int
	FiltersPerToken int
}{
	{"small", 1, 10},
	{"medium", 5, 15},
	{"large", 15, 20},
}

// fig5Tokens is the token population complexity manifests draw from; the
// first entries are the ones the trace exercises.
var fig5Tokens = []core.Token{
	core.TokenInsertFlow,
	core.TokenReadStatistics,
	core.TokenReadFlowTable,
	core.TokenDeleteFlow,
	core.TokenSendPktOut,
	core.TokenPktInEvent,
	core.TokenFlowEvent,
	core.TokenVisibleTopology,
	core.TokenHostNetwork,
	core.TokenFileSystem,
	core.TokenModifyFlow,
	core.TokenTopologyEvent,
	core.TokenErrorEvent,
	core.TokenReadPayload,
	core.TokenModifyTopology,
}

// allowedSubnets are the 10.x.0.0/16 ranges complexity filters admit;
// violating trace calls target 172.16.0.0/16.
const fig5AllowedSubnets = 8

// BuildComplexityManifest generates a synthetic permission set with the
// given number of tokens, each refined by filtersPerToken singleton
// filters: a disjunction of IP_DST subnet predicates conjoined with a
// priority cap and an ownership filter.
func BuildComplexityManifest(tokens, filtersPerToken int) *core.Set {
	return buildManifest(fig5Tokens, tokens, filtersPerToken)
}

// BuildComplexityManifestFor builds the manifest with the exercised API
// token granted first, so even the 1-token "small" manifest covers the
// API under test.
func BuildComplexityManifestFor(primary core.Token, tokens, filtersPerToken int) *core.Set {
	order := make([]core.Token, 0, len(fig5Tokens))
	order = append(order, primary)
	for _, t := range fig5Tokens {
		if t != primary {
			order = append(order, t)
		}
	}
	return buildManifest(order, tokens, filtersPerToken)
}

func buildManifest(order []core.Token, tokens, filtersPerToken int) *core.Set {
	if tokens > len(order) {
		tokens = len(order)
	}
	set := core.NewSet()
	for i := 0; i < tokens; i++ {
		nPreds := filtersPerToken - 2 // leave room for priority + owner
		if nPreds < 1 {
			nPreds = 1
		}
		var preds core.Expr
		for j := 0; j < nPreds; j++ {
			subnet := byte(1 + j%fig5AllowedSubnets)
			leaf := core.NewLeaf(core.NewPredFilter(of.FieldIPDst,
				uint64(of.IPv4FromOctets(10, subnet, 0, 0)), uint64(of.PrefixMask(16))))
			if preds == nil {
				preds = leaf
			} else {
				preds = &core.Or{L: preds, R: leaf}
			}
		}
		filter := &core.And{
			L: preds,
			R: &core.And{
				L: core.NewLeaf(core.NewMaxPriorityFilter(60000)),
				R: core.NewLeaf(core.NewOwnerFilter(false)),
			},
		}
		set.Grant(order[i], filter)
	}
	return set
}

// fig5Trace generates the app behaviour trace of §IX-B2: a sequence of
// flow insertions and statistics requests with the given fraction
// violating the permissions.
func fig5Trace(n int, violating float64, api core.Token, seed int64) []*core.Call {
	r := rand.New(rand.NewSource(seed))
	calls := make([]*core.Call, 0, n)
	for i := 0; i < n; i++ {
		var dst of.IPv4
		if r.Float64() < violating {
			dst = of.IPv4FromOctets(172, 16, byte(r.Intn(256)), byte(r.Intn(256)))
		} else {
			dst = of.IPv4FromOctets(10, byte(1+r.Intn(fig5AllowedSubnets)), byte(r.Intn(256)), byte(r.Intn(256)))
		}
		match := of.NewMatch().
			Set(of.FieldEthType, uint64(of.EthTypeIPv4)).
			Set(of.FieldIPDst, uint64(dst))
		switch api {
		case core.TokenInsertFlow:
			calls = append(calls, &core.Call{
				App: "bench", Token: core.TokenInsertFlow,
				DPID: 1, HasDPID: true,
				Match:    match,
				Actions:  []of.Action{of.Output(uint16(1 + r.Intn(4)))},
				Priority: uint16(r.Intn(50000)), HasPriority: true,
				HasFlowOwner: true, RuleCount: r.Intn(100), HasRuleCount: true,
			})
		case core.TokenReadStatistics:
			calls = append(calls, &core.Call{
				App: "bench", Token: core.TokenReadStatistics,
				DPID: 1, HasDPID: true,
				Match:      match,
				StatsLevel: of.StatsFlow,
			})
		}
	}
	return calls
}

// Fig5TraceForBench exposes the trace generator for the testing.B
// benchmarks.
func Fig5TraceForBench(n int, api core.Token) []*core.Call {
	return fig5Trace(n, 0.05, api, 42)
}

// RunFig5 measures single-goroutine permission-check throughput for the
// insert-flow and read-statistics APIs across the three manifest
// complexities, with 5% of trace calls violating the permissions.
func RunFig5(checksPerCell int) []Fig5Row {
	// The figure measures the raw check path (tens of ns per check); a
	// per-check journal emit would dominate it. The end-to-end audit cost
	// is budgeted on the µs-scale mediated call instead (bench-overhead).
	wasOn := audit.On()
	audit.SetEnabled(false)
	defer audit.SetEnabled(wasOn)
	apis := []struct {
		name  string
		token core.Token
	}{
		{"insert_flow", core.TokenInsertFlow},
		{"read_statistics", core.TokenReadStatistics},
	}
	var rows []Fig5Row
	for _, cx := range Fig5Complexities {
		for _, api := range apis {
			set := BuildComplexityManifestFor(api.token, cx.Tokens, cx.FiltersPerToken)
			engine := permengine.New(nil)
			engine.SetPermissions("bench", set)
			trace := fig5Trace(checksPerCell, 0.05, api.token, 42)
			// Warm the caches and branch predictors so the first cell is
			// not penalized.
			for i := 0; i < len(trace)/10+1; i++ {
				//nolint:errcheck
				engine.Check(trace[i%len(trace)])
			}
			denied := 0
			start := time.Now()
			for _, call := range trace {
				if engine.Check(call) != nil {
					denied++
				}
			}
			elapsed := time.Since(start)
			rows = append(rows, Fig5Row{
				Complexity:      cx.Name,
				Tokens:          cx.Tokens,
				FiltersPerToken: cx.FiltersPerToken,
				API:             api.name,
				Checks:          len(trace),
				NsPerCheck:      float64(elapsed.Nanoseconds()) / float64(len(trace)),
				ChecksPerSec:    float64(len(trace)) / elapsed.Seconds(),
				DenialRate:      float64(denied) / float64(len(trace)),
			})
		}
	}
	return rows
}

// FormatFig5 renders the rows the way Figure 5 reports them.
func FormatFig5(rows []Fig5Row) string {
	t := NewTable("Figure 5: permission checking throughput (single core)",
		"complexity", "tokens", "filters/token", "api", "checks/sec", "ns/check", "denial rate")
	for _, r := range rows {
		t.AddRow(r.Complexity, r.Tokens, r.FiltersPerToken, r.API,
			fmt.Sprintf("%.0f", r.ChecksPerSec),
			fmt.Sprintf("%.1f", r.NsPerCheck),
			fmt.Sprintf("%.1f%%", r.DenialRate*100))
	}
	return t.String()
}
