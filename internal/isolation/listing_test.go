package isolation

import (
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// TestListingIsOneDecision pins what a listing costs the engine: at most
// the one op-level decision, and nothing per row. Filtering rows to the
// visible subset must not move Engine.Stats or emit permission events,
// however many rows there are — an app paging through a big table would
// otherwise flood the journal and skew the denial-rate detector.
func TestListingIsOneDecision(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	env := newEnv(t, 3)
	grant(t, env.shield, "writer", "PERM insert_flow")
	grant(t, env.shield, "lister",
		"PERM read_flow_table LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0\n"+
			"PERM read_statistics LIMITING MAX_PRIORITY 10\n"+
			"PERM visible_topology LIMITING SWITCH {1,2}")
	grant(t, env.shield, "blind", "PERM insert_flow")
	apis := make(map[string]API)
	for _, name := range []string{"writer", "lister", "blind"} {
		if err := env.shield.Launch(app(name, func(a API) error { apis[name] = a; return nil })); err != nil {
			t.Fatal(err)
		}
	}
	// Six rows on switch 1, half of them inside the lister's subnet and
	// under its priority bound.
	for i := 0; i < 6; i++ {
		dst := of.IPv4FromOctets(10, byte(13+i%2), 0, byte(i+1))
		spec := controller.FlowSpec{
			Match:    of.NewMatch().Set(of.FieldIPDst, uint64(dst)),
			Priority: uint16(5 + 45*(i%2)), Actions: []of.Action{of.Output(1)},
		}
		if err := apis["writer"].InsertFlow(1, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.kernel.Barrier(1); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		list func(API) (rows int, err error)
		// granted/ungranted: the engine decisions one listing makes with
		// and without the token (the op-level check).
		granted, ungranted uint64
		wantRows           int
	}{
		{"Flows", func(a API) (int, error) { r, err := a.Flows(1, nil); return len(r), err }, 0, 1, 3},
		{"FlowStats", func(a API) (int, error) { r, err := a.FlowStats(1, nil); return len(r), err }, 1, 1, 3},
		{"Switches", func(a API) (int, error) { r, err := a.Switches(); return len(r), err }, 0, 1, 2},
		{"Links", func(a API) (int, error) { r, err := a.Links(); return len(r), err }, 0, 1, 1},
		{"Hosts", func(a API) (int, error) { r, err := a.Hosts(); return len(r), err }, 0, 1, 2},
	}
	j := audit.Default()
	measure := func(appName string, list func(API) (int, error)) (rows int, checks, denials uint64, events int, err error) {
		c0, d0 := env.shield.Engine().Stats()
		j.Flush()
		seq := j.LastSeq()
		rows, err = list(apis[appName])
		c1, d1 := env.shield.Engine().Stats()
		j.Flush()
		events = len(j.Query(audit.Filter{Kind: audit.KindPermission, App: appName, AfterSeq: seq}))
		return rows, c1 - c0, d1 - d0, events, err
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, checks, denials, events, err := measure("lister", tc.list)
			if err != nil {
				t.Fatal(err)
			}
			if rows != tc.wantRows {
				t.Errorf("visible rows = %d, want %d", rows, tc.wantRows)
			}
			if checks != tc.granted || denials != 0 || events != int(tc.granted) {
				t.Errorf("granted listing of %d rows: %d checks, %d denials, %d permission events; want %d, 0, %d",
					rows, checks, denials, events, tc.granted, tc.granted)
			}
			_, checks, denials, events, err = measure("blind", tc.list)
			if err == nil {
				t.Fatal("listing without the token must be denied")
			}
			if checks != tc.ungranted || denials != tc.ungranted || events != int(tc.ungranted) {
				t.Errorf("ungranted listing: %d checks, %d denials, %d permission events; want %d each",
					checks, denials, events, tc.ungranted)
			}
		})
	}
}
