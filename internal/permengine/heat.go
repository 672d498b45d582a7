package permengine

// Decision-heat profiles (§IX forward work): sampled, sharded,
// pointer-free counters recording how permission checks actually spend
// their time — which clauses of which tokens' filter expressions are
// evaluated, which short-circuit, which decide the verdict, and how long
// each clause costs. The profile is the input a future compiled engine
// consumes (ROADMAP item 10): a clause that decides 99% of denials should
// be hoisted first; a dimension that never fails can be dropped from the
// fast path.
//
// Cost model: the unsampled majority of checks pays nothing for heat —
// the decision is a cut of the call's sample, numbered by its caller.
// One check in heatOneIn carries a heat probe through the engine's one
// decision routine (permengine.go): the same clause walk, with each
// clause timed and counted into the grant's slab. A grant's slab is
// allocated by the first sampled walk that reaches it, so activation
// pays nothing for heat and a grant never sampled holds no slab.

import (
	"sort"
	"sync/atomic"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/obs"
)

// heatShards stripes the per-clause counter slab. Sampled hits are rare
// (1-in-64 by default), so a small fixed stripe count is enough to keep
// concurrent deputies off each other's cache lines without bloating the
// per-app footprint.
const heatShards = 4

// Per-clause counter slots within the flat slab.
const (
	heatCellEvals = iota // clause actually evaluated
	heatCellPass
	heatCellFail
	heatCellShort // skipped because an earlier clause already failed
	heatCellBracket0
	heatCells = heatCellBracket0 + heatBracketCount
)

// heatBracketCount latency brackets per clause: ≤256ns, ≤1µs, ≤4µs,
// ≤16µs, ≤64µs, >64µs (power-of-4 spacing brackets the ~300–400ns
// whole-check budget from both sides).
const heatBracketCount = 6

var heatBracketBounds = [heatBracketCount - 1]int64{256, 1024, 4096, 16384, 65536}

func heatBracketIdx(ns int64) int {
	for i, b := range heatBracketBounds {
		if ns <= b {
			return i
		}
	}
	return heatBracketCount - 1
}

// padCount is one cache-line-padded counter cell: a stripe of a grant's
// allow/deny totals, or of the engine's count of checks (Engine.calls).
type padCount struct {
	v atomic.Uint64
	_ [56]byte
}

// heatSlab is one grant's sampled counters: the allow/deny totals and,
// per clause, the evaluation counts and latency brackets.
type heatSlab struct {
	allow   [heatShards]padCount
	deny    [heatShards]padCount
	clauses int
	cells   []atomic.Uint64 // heatShards × clauses × heatCells, shard-major
}

// slab returns the grant's heat slab, installing a zeroed one if no
// sampled walk has yet. Racing first walks agree on one slab: the loser
// of the CAS drops its own and counts into the winner's.
func (g *grant) slab() *heatSlab {
	if s := g.heat.Load(); s != nil {
		return s
	}
	n := len(g.clauses)
	s := &heatSlab{clauses: n, cells: make([]atomic.Uint64, heatShards*n*heatCells)}
	if g.heat.CompareAndSwap(nil, s) {
		return s
	}
	return g.heat.Load()
}

// cell indexes the slab: shard-major so one sampled check touches a
// contiguous region owned by its stripe.
func (s *heatSlab) cell(shard, clause, slot int) *atomic.Uint64 {
	return &s.cells[(shard*s.clauses+clause)*heatCells+slot]
}

// ---------------------------------------------------------------------------
// Sampling

// heatOneIn is the heat walk's rate: one check in 64, the side cut
// (obs.Sample.OneIn) of the call's sample. It is fixed; a variable only
// so that tests can walk every check (export_test.go).
var heatOneIn uint64 = 64

var (
	heatEnabled atomic.Bool
	// heatSampled counts checks that took the instrumented route;
	// consumers scale clause counts back to full rate with
	// total-checks / heatSampled.
	heatSampled atomic.Uint64
)

func init() { heatEnabled.Store(true) }

// HeatEnabled reports whether heat profiling is live.
func HeatEnabled() bool { return heatEnabled.Load() }

// SetHeatEnabled flips heat profiling and returns the previous state.
// Counters are retained across off/on cycles.
func SetHeatEnabled(v bool) bool { return heatEnabled.Swap(v) }

// heatWalks reports whether the check of a call sampled s is profiled.
func heatWalks(s obs.Sample) bool {
	return s.OneIn(heatOneIn) && heatEnabled.Load() && obs.On()
}

// heatShard picks the caller's stripe: its P's (obs.Stripe).
func heatShard() int {
	return obs.Stripe() & (heatShards - 1)
}

// ---------------------------------------------------------------------------
// Recording

// heatProbe is the probe of every sampled check. It carries nothing: the
// counters live in the grant the decision reaches, striped by caller.
var heatProbe probe

// heatClause counts one clause of a sampled walk: evaluated (with its
// verdict and latency bracket) or short-circuited.
func (g *grant) heatClause(i int, evaluated, pass bool, took time.Duration) {
	s, shard := g.slab(), heatShard()
	switch {
	case !evaluated:
		s.cell(shard, i, heatCellShort).Add(1)
		return
	case pass:
		s.cell(shard, i, heatCellPass).Add(1)
	default:
		s.cell(shard, i, heatCellFail).Add(1)
	}
	s.cell(shard, i, heatCellEvals).Add(1)
	s.cell(shard, i, heatCellBracket0+heatBracketIdx(took.Nanoseconds())).Add(1)
}

// heatVerdict counts a sampled decision's outcome: against the grant it
// reached, or in the engine-wide buckets of the denials that reach none.
func (e *Engine) heatVerdict(g *grant, reason string) {
	switch reason {
	case ReasonNoManifest:
		e.heatNoManifest.Add(1)
	case ReasonTokenUngranted:
		e.heatUngranted.Add(1)
	case ReasonAllowed:
		g.slab().allow[heatShard()].v.Add(1)
	default:
		g.slab().deny[heatShard()].v.Add(1)
	}
}

// ---------------------------------------------------------------------------
// Snapshots

// HeatBrackets is one clause's latency distribution over the sampled
// evaluations, in fixed nanosecond brackets.
type HeatBrackets struct {
	LE256ns uint64 `json:"le_256ns"`
	LE1us   uint64 `json:"le_1us"`
	LE4us   uint64 `json:"le_4us"`
	LE16us  uint64 `json:"le_16us"`
	LE64us  uint64 `json:"le_64us"`
	GT64us  uint64 `json:"gt_64us"`
}

// ClauseHeat is one clause's sampled counters.
type ClauseHeat struct {
	Index         int          `json:"index"`
	Expr          string       `json:"expr"`
	Dimensions    []string     `json:"dimensions"`
	Evals         uint64       `json:"evals"`
	Pass          uint64       `json:"pass"`
	Fail          uint64       `json:"fail"`
	ShortCircuits uint64       `json:"short_circuits"`
	Latency       HeatBrackets `json:"latency"`
}

// TokenHeat is one (app, token)'s sampled decision heat.
type TokenHeat struct {
	Token   string       `json:"token"`
	Allow   uint64       `json:"allow"`
	Deny    uint64       `json:"deny"`
	Clauses []ClauseHeat `json:"clauses"`
}

// AppHeat is one app's heat profile.
type AppHeat struct {
	App    string      `json:"app"`
	Tokens []TokenHeat `json:"tokens"`
}

// HeatProfile is an engine's full decision-heat snapshot — the
// profile-guided input for the compiled engine.
type HeatProfile struct {
	Enabled       bool      `json:"enabled"`
	SamplingEvery int       `json:"sampling_every"`
	SampledChecks uint64    `json:"sampled_checks"`
	NoManifest    uint64    `json:"deny_no_manifest"`
	Ungranted     uint64    `json:"deny_token_not_granted"`
	Apps          []AppHeat `json:"apps"`
}

// HeatSnapshot sums the sharded counters into a stable, sorted profile.
// Counters reset when an app's permission set is replaced (a new set is a
// new profile).
func (e *Engine) HeatSnapshot() HeatProfile {
	p := HeatProfile{
		Enabled:       HeatEnabled(),
		SamplingEvery: int(heatOneIn),
		SampledChecks: heatSampled.Load(),
		NoManifest:    e.heatNoManifest.Load(),
		Ungranted:     e.heatUngranted.Load(),
	}
	e.apps.Range(func(name, slot any) bool {
		c := slot.(*atomic.Pointer[compiled]).Load()
		ah := AppHeat{App: name.(string)}
		for tok, g := range c.grants {
			ah.Tokens = append(ah.Tokens, g.snapshot(tok))
		}
		sort.Slice(ah.Tokens, func(i, j int) bool { return ah.Tokens[i].Token < ah.Tokens[j].Token })
		p.Apps = append(p.Apps, ah)
		return true
	})
	sort.Slice(p.Apps, func(i, j int) bool { return p.Apps[i].App < p.Apps[j].App })
	return p
}

// snapshot sums the grant's slab; a grant no sampled walk has reached
// reads zeros and is left without a slab.
func (g *grant) snapshot(tok core.Token) TokenHeat {
	out := TokenHeat{Token: tok.String()}
	s := g.heat.Load()
	for sh := 0; s != nil && sh < heatShards; sh++ {
		out.Allow += s.allow[sh].v.Load()
		out.Deny += s.deny[sh].v.Load()
	}
	for i, src := range g.clauses {
		ch := ClauseHeat{Index: i}
		ch.Expr, ch.Dimensions = clauseText(src)
		var brackets [heatBracketCount]uint64
		for sh := 0; s != nil && sh < heatShards; sh++ {
			ch.Evals += s.cell(sh, i, heatCellEvals).Load()
			ch.Pass += s.cell(sh, i, heatCellPass).Load()
			ch.Fail += s.cell(sh, i, heatCellFail).Load()
			ch.ShortCircuits += s.cell(sh, i, heatCellShort).Load()
			for b := 0; b < heatBracketCount; b++ {
				brackets[b] += s.cell(sh, i, heatCellBracket0+b).Load()
			}
		}
		ch.Latency = HeatBrackets{
			LE256ns: brackets[0], LE1us: brackets[1], LE4us: brackets[2],
			LE16us: brackets[3], LE64us: brackets[4], GT64us: brackets[5],
		}
		out.Clauses = append(out.Clauses, ch)
	}
	return out
}
