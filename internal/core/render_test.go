package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// The fmt-based renderers AppendExpr replaced, kept only as the reference
// the live renderers must match byte for byte.

func refIPv4(ip of.IPv4) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

func refFilter(f core.Filter) string {
	p, ok := f.(*core.PredFilter)
	if !ok {
		return f.String()
	}
	full := of.FullMask(p.Field())
	if p.Field() == of.FieldIPSrc || p.Field() == of.FieldIPDst {
		if p.Mask() == full {
			return fmt.Sprintf("%s %s", p.Field(), refIPv4(of.IPv4(p.Value())))
		}
		return fmt.Sprintf("%s %s MASK %s", p.Field(), refIPv4(of.IPv4(p.Value())), refIPv4(of.IPv4(p.Mask())))
	}
	if p.Mask() == full {
		return fmt.Sprintf("%s %d", p.Field(), p.Value())
	}
	return fmt.Sprintf("%s %d MASK %d", p.Field(), p.Value(), p.Mask())
}

func refExpr(e core.Expr) string {
	switch v := e.(type) {
	case nil:
		return "*"
	case *core.Leaf:
		return refFilter(v.F)
	case *core.MacroRef:
		return v.Name
	case *core.Not:
		return fmt.Sprintf("NOT %s", refExpr(v.X))
	case *core.And:
		return fmt.Sprintf("(%s AND %s)", refExpr(v.L), refExpr(v.R))
	case *core.Or:
		return fmt.Sprintf("(%s OR %s)", refExpr(v.L), refExpr(v.R))
	}
	panic(fmt.Sprintf("unknown expression %T", e))
}

func refPermission(p core.Permission) string {
	if p.Filter == nil {
		return "PERM " + p.Token.String()
	}
	return fmt.Sprintf("PERM %s LIMITING %s", p.Token, refExpr(p.Filter))
}

func refManifest(perms []core.Permission) string {
	lines := make([]string, len(perms))
	for i, p := range perms {
		lines[i] = refPermission(p)
	}
	return strings.Join(lines, "\n")
}

// everyFilterKind adds to the shared pool the filter kinds and renderings
// it lacks: non-IP predicates with and without a mask, an exact IP, every
// topology form, the callback grants and the remaining stats level.
func everyFilterKind() []core.Filter {
	return append(core.FilterPool(),
		core.NewPredFilter(of.FieldTPDst, 80, of.FullMask(of.FieldTPDst)),
		core.NewPredFilter(of.FieldTPDst, 0x1f00, 0xff00),
		core.NewPredFilter(of.FieldEthType, uint64(of.EthTypeIPv4), of.FullMask(of.FieldEthType)),
		core.NewPredFilter(of.FieldEthSrc, 0x0a0b0c0d0e0f, of.FullMask(of.FieldEthSrc)),
		core.NewPredFilter(of.FieldIPSrc, uint64(of.IPv4FromOctets(10, 0, 0, 1)), of.FullMask(of.FieldIPSrc)),
		core.NewPredFilter(of.FieldIPDst, 0, 0),
		core.NewWildcardFilter(of.FieldTPSrc, 0xff),
		core.NewModifyActionFilter(0),
		core.NewPhysTopoFilter([]of.DPID{3, 1, 2}),
		core.NewPhysTopoFilterWithLinks([]of.DPID{1, 2}, []core.LinkID{core.NewLinkID(2, 1)}),
		core.NewSingleBigSwitchFilter(),
		core.NewMappedTopoFilter(map[of.DPID][]of.DPID{10: {2, 1}, 11: {3}}),
		core.NewCallbackFilter(core.CallbackIntercept),
		core.NewCallbackFilter(core.CallbackReorder),
		core.NewStatsFilter(of.StatsSwitch),
	)
}

// randomSet grants a random subset of tokens, each unconditionally or
// under a random expression over pool; a token drawn twice is widened.
func randomSet(r *rand.Rand, pool []core.Filter) *core.Set {
	s := core.NewSet()
	for n := 1 + r.Intn(6); n > 0; n-- {
		tok := core.AllTokens()[r.Intn(core.NumTokens)]
		var filter core.Expr
		if r.Intn(4) != 0 {
			filter = core.RandomExpr(r, pool, 3)
		}
		s.Grant(tok, filter)
	}
	return s
}

func TestRendererMatchesFmtReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pool := everyFilterKind()
	exprs := []core.Expr{
		nil,
		&core.MacroRef{Name: "AdminRange"},
		&core.Not{X: &core.And{L: &core.MacroRef{Name: "AdminRange"}, R: core.NewLeaf(pool[0])}},
	}
	for i := 0; i < 3000; i++ {
		exprs = append(exprs, core.RandomExpr(r, pool, 4))
	}
	for _, e := range exprs {
		want := refExpr(e)
		if got := string(core.AppendExpr([]byte("x"), e)); got != "x"+want {
			t.Fatalf("AppendExpr = %q, want %q", got, "x"+want)
		}
		if got := core.ExprString(e); got != want {
			t.Fatalf("ExprString = %q, want %q", got, want)
		}
		if e != nil {
			if got := e.String(); got != want {
				t.Fatalf("String = %q, want %q", got, want)
			}
		}
		p := core.Permission{Token: core.TokenInsertFlow, Filter: e}
		if got, want := p.String(), refPermission(p); got != want {
			t.Fatalf("Permission.String = %q, want %q", got, want)
		}
	}
	for i := 0; i < 500; i++ {
		s := randomSet(r, pool)
		if got, want := s.SortedString(), refManifest(s.SortedPermissions()); got != want {
			t.Fatalf("SortedString = %q, want %q", got, want)
		}
		if got, want := s.String(), refManifest(s.Permissions()); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	for _, ip := range []of.IPv4{0, 0xffffffff, of.IPv4FromOctets(10, 0, 100, 9), of.IPv4(r.Uint32())} {
		if got, want := ip.String(), refIPv4(ip); got != want {
			t.Fatalf("IPv4.String = %q, want %q", got, want)
		}
	}
}

func TestSortedStringReparsesToEqualSet(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pool := everyFilterKind()
	for i := 0; i < 500; i++ {
		s := randomSet(r, pool)
		src := s.SortedString()
		m, err := permlang.Parse(src)
		if err != nil {
			t.Fatalf("reparse of\n%s\n: %v", src, err)
		}
		eq, err := m.Set().Equal(s)
		if err != nil || !eq {
			t.Fatalf("reparse of\n%s\nis not Equal (err %v): %s", src, err, m.Set().SortedString())
		}
	}
}
