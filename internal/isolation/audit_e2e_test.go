package isolation

import (
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// TestAuditCorrelationEndToEnd drives an app through the sandbox to a
// simulated switch and asserts causal attribution: the flow-mod's audit
// event carries the same correlation ID as the permission decision of the
// mediated call that caused it.
func TestAuditCorrelationEndToEnd(t *testing.T) {
	env := newEnv(t, 2)
	grant(t, env.shield, "router", "PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS")

	var api API
	if err := env.shield.Launch(app("router", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}

	j := audit.Default()
	start := j.LastSeq()
	dpid := env.kernel.Topology().SwitchIDs()[0]
	spec := controller.FlowSpec{
		Match:    of.NewMatch().Set(of.FieldIPDst, uint64(env.built.Hosts[1].IP())),
		Priority: 10,
		Actions:  []of.Action{of.Output(2)},
	}
	if err := api.InsertFlow(dpid, spec); err != nil {
		t.Fatal(err)
	}
	j.Flush()

	events := j.Query(audit.Filter{App: "router", AfterSeq: start})
	var perm, flow *audit.Event
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Kind == audit.KindPermission && ev.Verdict == audit.VerdictAllow:
			perm = ev
		case ev.Kind == audit.KindFlowMod && ev.Verdict == audit.VerdictSent:
			flow = ev
		}
	}
	if perm == nil {
		t.Fatalf("no permission allow event for router in %+v", events)
	}
	if flow == nil {
		t.Fatalf("no flow_mod sent event for router in %+v", events)
	}
	if perm.Corr == 0 {
		t.Fatal("permission event has no correlation ID")
	}
	if flow.Corr != perm.Corr {
		t.Fatalf("flow-mod corr %d != permission corr %d: attribution broken",
			flow.Corr, perm.Corr)
	}
	if flow.DPID != uint64(dpid) {
		t.Errorf("flow-mod event DPID = %d, want %d", flow.DPID, dpid)
	}
	if flow.Op != "add" {
		t.Errorf("flow-mod event op = %q, want add", flow.Op)
	}
	if perm.Token != "insert_flow" {
		t.Errorf("permission event token = %q, want insert_flow", perm.Token)
	}
}

// TestCorrStoryInJournal pins what a correlation ID retrieves from the
// journal: for an allowed insert, exactly the permission decision and the
// flow-mod it sent on the addressed switch; for a denied one, exactly the
// denial and nothing on the wire.
func TestCorrStoryInJournal(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	env := newEnv(t, 2)
	grant(t, env.shield, "story", "PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS")
	var api API
	if err := env.shield.Launch(app("story", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	j := audit.Default()
	dpid := env.kernel.Topology().SwitchIDs()[0]
	match := of.NewMatch().Set(of.FieldIPDst, uint64(env.built.Hosts[1].IP()))

	// story returns the events of the app's one permission decision since
	// start, queried by that decision's corr.
	story := func(start uint64, verdict audit.Verdict) []audit.Event {
		t.Helper()
		j.Flush()
		decided := j.Query(audit.Filter{App: "story", Kind: audit.KindPermission, AfterSeq: start})
		if len(decided) != 1 || decided[0].Verdict != verdict || decided[0].Corr == 0 {
			t.Fatalf("decisions since seq %d = %+v, want one %s with a corr", start, decided, verdict)
		}
		return j.Query(audit.Filter{Corr: decided[0].Corr})
	}

	start := j.LastSeq()
	if err := api.InsertFlow(dpid, controller.FlowSpec{Match: match, Priority: 10, Actions: []of.Action{of.Output(2)}}); err != nil {
		t.Fatal(err)
	}
	allowed := story(start, audit.VerdictAllow)
	if len(allowed) != 2 ||
		allowed[0].Kind != audit.KindPermission || allowed[0].Verdict != audit.VerdictAllow ||
		allowed[1].Kind != audit.KindFlowMod || allowed[1].Verdict != audit.VerdictSent ||
		allowed[1].DPID != uint64(dpid) {
		t.Fatalf("allowed insert's corr story = %+v, want permission/allow then flow_mod/sent on dpid %d", allowed, dpid)
	}

	start = j.LastSeq()
	if err := api.InsertFlow(dpid, controller.FlowSpec{Match: match, Priority: 10, Actions: []of.Action{of.Drop()}}); err == nil {
		t.Fatal("drop rule allowed under ACTION FORWARD")
	}
	denied := story(start, audit.VerdictDeny)
	if len(denied) != 1 || denied[0].Kind != audit.KindPermission || denied[0].Verdict != audit.VerdictDeny {
		t.Fatalf("denied insert's corr story = %+v, want exactly its permission/deny", denied)
	}
}

// TestAuditDenialBurstFlagsAnomaly asserts a sustained denial burst from
// one app raises the denial-rate anomaly flag in HealthSnapshot without
// affecting a well-behaved app running alongside it.
func TestAuditDenialBurstFlagsAnomaly(t *testing.T) {
	env := newEnv(t, 2)
	det := audit.DefaultDetector()
	det.Reset()
	t.Cleanup(det.Reset)

	// quiet holds the permission and uses it; noisy has no manifest, so
	// every insert is denied.
	grant(t, env.shield, "quiet-e2e", "PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS")
	var quietAPI, noisyAPI API
	if err := env.shield.Launch(app("quiet-e2e", func(a API) error { quietAPI = a; return nil })); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(app("noisy-e2e", func(a API) error { noisyAPI = a; return nil })); err != nil {
		t.Fatal(err)
	}

	dpid := env.kernel.Topology().SwitchIDs()[0]
	spec := controller.FlowSpec{
		Match:    of.NewMatch().Set(of.FieldIPDst, uint64(env.built.Hosts[1].IP())),
		Priority: 11,
		Actions:  []of.Action{of.Output(2)},
	}
	for i := 0; i < 4; i++ {
		if err := quietAPI.InsertFlow(dpid, spec); err != nil {
			t.Fatalf("quiet insert %d: %v", i, err)
		}
	}
	// Burst well past the detector's per-window threshold (default 128).
	for i := 0; i < 200; i++ {
		if err := noisyAPI.InsertFlow(dpid, spec); err == nil {
			t.Fatal("noisy insert unexpectedly allowed")
		}
	}
	// Flush so the detector (a journal consumer) has observed the burst.
	audit.Default().Flush()

	snap := env.shield.HealthSnapshot()
	byApp := make(map[string]AppHealthSnapshot, len(snap.Apps))
	for _, a := range snap.Apps {
		byApp[a.App] = a
	}
	noisy, ok := byApp["noisy-e2e"]
	if !ok {
		t.Fatalf("noisy-e2e missing from HealthSnapshot: %+v", snap.Apps)
	}
	if !noisy.DenialAnomaly {
		t.Errorf("noisy-e2e not flagged after 200-denial burst: %+v", noisy)
	}
	quiet, ok := byApp["quiet-e2e"]
	if !ok {
		t.Fatalf("quiet-e2e missing from HealthSnapshot: %+v", snap.Apps)
	}
	if quiet.DenialAnomaly {
		t.Errorf("quiet-e2e wrongly flagged: %+v", quiet)
	}
}
