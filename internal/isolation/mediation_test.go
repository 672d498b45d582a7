package isolation

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// callee renders the function a call expression calls: "callFor",
// "a.call", "t.shield.call" (an explicit type argument dropped).
func callee(e ast.Expr) string {
	switch f := e.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return callee(f.X) + "." + f.Sel.Name
	case *ast.IndexExpr:
		return callee(f.X)
	}
	return "?"
}

// TestCompleteMediation walks the package source: every API method of
// shieldedAPI reaches the one choke point — a.call, callFor or a.mediate —
// but AppName (no kernel state), HasPermission (a side-effect-free probe
// of the app's own grant) and Transaction (which only starts a plan), and
// a transaction's Commit reaches call on the shield.
func TestCompleteMediation(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := map[string]map[string]bool{} // "Type.Method" -> callees, receiver named "r"
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List[0].Names) == 0 {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			typ, _ := star.X.(*ast.Ident)
			if typ == nil {
				continue
			}
			recv := fn.Recv.List[0].Names[0].Name
			seen := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					name := callee(c.Fun)
					if rest, ok := strings.CutPrefix(name, recv+"."); ok {
						name = "r." + rest
					}
					seen[name] = true
				}
				return true
			})
			calls[typ.Name+"."+fn.Name.Name] = seen
		}
	}

	exempt := map[string]bool{"AppName": true, "HasPermission": true, "Transaction": true}
	api := reflect.TypeOf((*API)(nil)).Elem()
	for i := 0; i < api.NumMethod(); i++ {
		m := api.Method(i).Name
		seen, ok := calls["shieldedAPI."+m]
		switch {
		case !ok:
			t.Errorf("shieldedAPI.%s: no method declared in the package source", m)
		case exempt[m]:
		case !seen["r.call"] && !seen["callFor"] && !seen["r.mediate"]:
			t.Errorf("shieldedAPI.%s reaches neither a.call, callFor nor a.mediate: it bypasses the choke point", m)
		}
	}
	if !calls["Tx.Commit"]["r.shield.call"] {
		t.Errorf("Tx.Commit does not reach call on the shield: a transaction bypasses the choke point")
	}
}

// TestTxIsOneMediatedCall: a committed transaction is one mediated call
// of its app, numbered and measured like any other, whatever the number
// of calls it plans.
func TestTxIsOneMediatedCall(t *testing.T) {
	sampleAll(t, 1)
	env := newEnvCfg(t, 2, noQuotaLoop())
	api := launchAPI(t, env, "txcount", "PERM insert_flow")
	c, _ := env.shield.Container("txcount")
	spec := func(port uint64) controller.FlowSpec {
		return controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, port), Priority: 10,
			Actions: []of.Action{of.Output(1)}}
	}
	calls, observed := c.usage().MediatedCalls, opTx.hist.Count()
	if err := api.Transaction().InsertFlow(1, spec(80)).InsertFlow(2, spec(443)).Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.usage().MediatedCalls - calls; got != 1 {
		t.Errorf("a 2-call tx added %d to MediatedCalls, want 1", got)
	}
	if got := opTx.hist.Count() - observed; got != 1 {
		t.Errorf("a 2-call tx left %d observations in the tx latency histogram at sampling 1, want 1", got)
	}
}

// TestSubscribeDenialIsAudited: a subscription without its kind's token
// is refused as one audited decision, alone under its corr, and wires
// nothing.
func TestSubscribeDenialIsAudited(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	env := newEnv(t, 1)
	api := launchAPI(t, env, "deaf", "PERM read_statistics")
	j := audit.Default()
	start := j.LastSeq()
	if err := api.Subscribe(controller.EventPacketIn, func(controller.Event) {}); err == nil {
		t.Fatal("subscription without pkt_in_event succeeded")
	}
	j.Flush()
	denied := j.Query(audit.Filter{App: "deaf", Kind: audit.KindPermission, Verdict: audit.VerdictDeny, AfterSeq: start})
	if len(denied) != 1 || denied[0].Corr == 0 || denied[0].Token != core.TokenPktInEvent.String() {
		t.Fatalf("denials = %+v, want one of pkt_in_event with a corr", denied)
	}
	if story := j.Query(audit.Filter{Corr: denied[0].Corr}); len(story) != 1 {
		t.Errorf("events under the denial's corr = %+v, want just the denial", story)
	}
	c, _ := env.shield.Container("deaf")
	if wired := subscriptions(c); wired != 0 {
		t.Errorf("%d kernel subscriptions wired for a denied subscription", wired)
	}
}

// TestQuarantinedSubscribeWiresNothing: a quarantined app's handle is
// dead for subscriptions too.
func TestQuarantinedSubscribeWiresNothing(t *testing.T) {
	env := newEnv(t, 1)
	api := launchAPI(t, env, "quiet", "PERM pkt_in_event")
	c, _ := env.shield.Container("quiet")
	c.quarantine("test")
	err := api.Subscribe(controller.EventPacketIn, func(controller.Event) {})
	if !errors.Is(err, ErrAppQuarantined) {
		t.Errorf("quarantined app's Subscribe = %v, want ErrAppQuarantined", err)
	}
	if wired := subscriptions(c); wired != 0 {
		t.Errorf("%d kernel subscriptions wired for a quarantined app", wired)
	}
}

// subscriptions counts the kernel subscriptions c holds.
func subscriptions(c *Container) int {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	return len(c.kernels)
}
