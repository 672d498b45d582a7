package market

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
)

// fakeRuntime records permission activations and serves scripted health.
type fakeRuntime struct {
	mu     sync.Mutex
	perms  map[string]*core.Set
	health map[string]isolation.Health
	sets   int
}

func newFakeRuntime() *fakeRuntime {
	return &fakeRuntime{
		perms:  make(map[string]*core.Set),
		health: make(map[string]isolation.Health),
	}
}

func (f *fakeRuntime) Activate(app string, g permengine.Grant) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perms[app] = g.Set
	f.sets++
}

func (f *fakeRuntime) AppHealth(app string) (isolation.Health, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.health[app]
	return h, ok
}

func (f *fakeRuntime) setHealth(app string, h isolation.Health) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.health[app] = h
}

func (f *fakeRuntime) permsOf(app string) *core.Set {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.perms[app]
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// marketEnv wires a registry, a fake runtime and a market over the given
// policy, with short probation for tests.
func marketEnv(t *testing.T, policy string) (*Market, *fakeRuntime, func(r Release) Digest) {
	t.Helper()
	reg, sign := newTestRegistry(t)
	rt := newFakeRuntime()
	m, err := New(reg, rt, Config{
		PolicySrc:     policy,
		Probation:     80 * time.Millisecond,
		ProbationPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	submit := func(r Release) Digest {
		sr := sign(r)
		d, err := reg.Submit(sr)
		if err != nil {
			t.Fatalf("submit %s@%s: %v", r.Name, r.Version, err)
		}
		return d
	}
	return m, rt, submit
}

const testPolicy = `
LET Bound = { PERM read_statistics PERM visible_topology PERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0 }
ASSERT EITHER { PERM network_access } OR { PERM process_runtime }
ASSERT mon <= Bound
`

func TestInstallApprovedActivates(t *testing.T) {
	m, rt, submit := marketEnv(t, testPolicy)
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"})

	res, err := m.Install(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictApproved || res.Status != StatusActive {
		t.Fatalf("verdict=%q status=%q", res.Verdict, res.Status)
	}
	got := rt.permsOf("mon")
	if got == nil || !got.Has(core.TokenReadStatistics) || !got.Has(core.TokenInsertFlow) {
		t.Fatalf("runtime permissions = %v", got)
	}
	// Installing again over a live release must be refused.
	if _, err := m.Install(d); !errors.Is(err, ErrAlreadyInstalled) {
		t.Fatalf("second install err = %v, want ErrAlreadyInstalled", err)
	}
}

func TestInstallRepairedWaitsForSignOff(t *testing.T) {
	m, rt, submit := marketEnv(t, testPolicy)
	// insert_flow over an out-of-bound range: repaired by MEET with Bound.
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.0.0.0"})

	res, err := m.Install(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictRepaired || res.Status != StatusPending {
		t.Fatalf("verdict=%q status=%q", res.Verdict, res.Status)
	}
	if rt.permsOf("mon") != nil {
		t.Fatal("pending release reached the runtime before sign-off")
	}

	ares, err := m.Approve("mon")
	if err != nil {
		t.Fatal(err)
	}
	if ares.Status != StatusActive {
		t.Fatalf("status after approve = %q", ares.Status)
	}
	got := rt.permsOf("mon")
	if got == nil || !got.Has(core.TokenInsertFlow) {
		t.Fatalf("approved permissions = %v", got)
	}
	// The activated set is the repaired one: it must sit inside the
	// policy boundary (Algorithm 1 as the oracle) — the wider 10/8
	// request must not survive the MEET.
	bm, err := permlang.Parse("PERM read_statistics PERM visible_topology PERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0")
	if err != nil {
		t.Fatal(err)
	}
	bound := core.NewSet()
	for _, p := range bm.Permissions {
		bound.Grant(p.Token, p.Filter)
	}
	inc, err := bound.Includes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("repaired permission set exceeds the policy boundary")
	}
	// Approving twice must fail.
	if _, err := m.Approve("mon"); !errors.Is(err, ErrNothingPending) {
		t.Fatalf("second approve err = %v, want ErrNothingPending", err)
	}
}

func TestInstallRejectedEmptyEffective(t *testing.T) {
	m, rt, submit := marketEnv(t, testPolicy)
	// Outside the boundary entirely: MEET leaves nothing.
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM process_runtime"})

	res, err := m.Install(d)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if res == nil || res.Verdict != VerdictRejected {
		t.Fatalf("result = %+v", res)
	}
	if rt.permsOf("mon") != nil {
		t.Fatal("rejected release reached the runtime")
	}
	if _, ok := m.Status("mon"); ok {
		if s, _ := m.Status("mon"); s.Status == StatusActive {
			t.Fatal("rejected release shows as active")
		}
	}
}

func TestInstallRejectedUnknownReference(t *testing.T) {
	m, _, submit := marketEnv(t, "ASSERT mon <= NoSuchBinding\n")
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics"})
	if _, err := m.Install(d); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestUpgradeRequiresNewerVersion(t *testing.T) {
	m, _, submit := marketEnv(t, "")
	d1 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.1.0", Manifest: "PERM read_statistics"})
	if _, err := m.Install(d1); err != nil {
		t.Fatal(err)
	}
	dOld := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics LIMITING PORT_LEVEL"})
	if _, err := m.Upgrade(dOld); !errors.Is(err, ErrNotAnUpgrade) {
		t.Fatalf("downgrade err = %v, want ErrNotAnUpgrade", err)
	}
	// Upgrading an app that is not installed fails too.
	dOther := submit(Release{Name: "other", Vendor: "acme", Version: "2.0.0", Manifest: "PERM read_statistics"})
	if _, err := m.Upgrade(dOther); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("err = %v, want ErrNotInstalled", err)
	}
}

func TestUpgradeProbationCommits(t *testing.T) {
	m, rt, submit := marketEnv(t, "")
	d1 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if _, err := m.Install(d1); err != nil {
		t.Fatal(err)
	}
	rt.setHealth("mon", isolation.Running)

	before := audit.Default().LastSeq()
	d2 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.1.0",
		Manifest: "PERM read_statistics\nPERM visible_topology"})
	res, err := m.Upgrade(d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProbation {
		t.Fatalf("status = %q, want probation", res.Status)
	}
	if got := rt.permsOf("mon"); got == nil || !got.Has(core.TokenVisibleTopology) {
		t.Fatal("upgrade permissions not activated during probation")
	}

	waitCond(t, "probation commit", func() bool {
		s, _ := m.Status("mon")
		return s.Status == StatusActive
	})
	// The commit is audited under the upgrade's correlation ID.
	audit.Default().DrainNow()
	evs := audit.Default().Query(audit.Filter{App: "mon", Kind: audit.KindMarket, Corr: res.Corr, AfterSeq: before})
	var sawUpgrade, sawCommit bool
	for _, e := range evs {
		switch e.Op {
		case "upgrade":
			sawUpgrade = true
		case "commit":
			sawCommit = true
		}
	}
	if !sawUpgrade || !sawCommit {
		t.Fatalf("correlated events upgrade=%v commit=%v: %+v", sawUpgrade, sawCommit, evs)
	}
	if got := rt.permsOf("mon"); !got.Has(core.TokenVisibleTopology) {
		t.Fatal("committed upgrade lost its permissions")
	}
}

func TestUpgradeProbationRollsBackOnPanic(t *testing.T) {
	m, rt, submit := marketEnv(t, "")
	d1 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if _, err := m.Install(d1); err != nil {
		t.Fatal(err)
	}
	rt.setHealth("mon", isolation.Running)

	before := audit.Default().LastSeq()
	d2 := submit(Release{Name: "mon", Vendor: "acme", Version: "2.0.0",
		Manifest: "PERM read_statistics\nPERM process_runtime"})
	res, err := m.Upgrade(d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProbation {
		t.Fatalf("status = %q", res.Status)
	}
	// The new release misbehaves inside the window.
	rt.setHealth("mon", isolation.Restarting)

	waitCond(t, "rollback", func() bool {
		s, _ := m.Status("mon")
		return s.Status == StatusActive && s.Version == "1.0.0"
	})
	got := rt.permsOf("mon")
	if got.Has(core.TokenProcessRuntime) {
		t.Fatal("rolled-back app kept the upgrade's permissions")
	}
	if !got.Has(core.TokenReadStatistics) {
		t.Fatal("rollback lost the previous release's permissions")
	}
	// Upgrade and rollback share one correlation ID.
	audit.Default().DrainNow()
	evs := audit.Default().Query(audit.Filter{App: "mon", Kind: audit.KindMarket,
		Verdict: audit.VerdictRollback, Corr: res.Corr, AfterSeq: before})
	if len(evs) == 0 {
		t.Fatal("no rollback audit event correlated with the upgrade")
	}
}

func TestRevokeClearsPermissions(t *testing.T) {
	m, rt, submit := marketEnv(t, "")
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if _, err := m.Install(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke("mon"); err != nil {
		t.Fatal(err)
	}
	if got := rt.permsOf("mon"); got == nil || got.Len() != 0 {
		t.Fatalf("post-revoke permissions = %v, want empty set", got)
	}
	s, _ := m.Status("mon")
	if s.Status != StatusRevoked {
		t.Fatalf("status = %q", s.Status)
	}
	// A fresh install over a revoked app is allowed.
	if _, err := m.Install(d); err != nil {
		t.Fatalf("reinstall after revoke: %v", err)
	}
	if err := m.Revoke("ghost"); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("revoke ghost err = %v", err)
	}
}

func TestSnapshotListsRegistryAndInstalled(t *testing.T) {
	m, _, submit := marketEnv(t, "")
	submit(Release{Name: "b-app", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	dA := submit(Release{Name: "a-app", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if _, err := m.Install(dA); err != nil {
		t.Fatal(err)
	}
	snaps := m.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot count = %d", len(snaps))
	}
	if snaps[0].App != "a-app" || snaps[1].App != "b-app" {
		t.Fatalf("snapshot order = %s, %s", snaps[0].App, snaps[1].App)
	}
	if snaps[0].Status != StatusActive || snaps[0].Version != "1.0.0" {
		t.Fatalf("a-app snapshot = %+v", snaps[0])
	}
	if snaps[1].Status != "" && snaps[1].Status != AppStatus("") {
		t.Fatalf("b-app should be uninstalled, got %q", snaps[1].Status)
	}
}

// budgetFakeRuntime extends fakeRuntime with quota recording, the way
// *isolation.Shield enforces budgets.
type budgetFakeRuntime struct {
	fakeRuntime
	budgets map[string]core.Budget
}

var _ Runtime = (*budgetFakeRuntime)(nil)
var _ Runtime = (*isolation.Shield)(nil)

func newBudgetFakeRuntime() *budgetFakeRuntime {
	return &budgetFakeRuntime{
		fakeRuntime: *newFakeRuntime(),
		budgets:     make(map[string]core.Budget),
	}
}

func (f *budgetFakeRuntime) Activate(app string, g permengine.Grant) {
	f.fakeRuntime.Activate(app, g)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budgets[app] = g.Budget
}

func (f *budgetFakeRuntime) budgetOf(app string) core.Budget {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.budgets[app]
}

func TestBudgetThreadsThroughLifecycle(t *testing.T) {
	reg, sign := newTestRegistry(t)
	rt := newBudgetFakeRuntime()
	m, err := New(reg, rt, Config{
		Probation:     80 * time.Millisecond,
		ProbationPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	submit := func(r Release) Digest {
		d, err := reg.Submit(sign(r))
		if err != nil {
			t.Fatalf("submit %s@%s: %v", r.Name, r.Version, err)
		}
		return d
	}

	// Install pushes the manifest's BUDGET statements as the quota.
	d1 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nBUDGET CPU_MS_PER_SEC 250\nBUDGET MAX_GOROUTINES 4"})
	if _, err := m.Install(d1); err != nil {
		t.Fatal(err)
	}
	want1 := core.Budget{CPUMillisPerSec: 250, MaxGoroutines: 4}
	if got := rt.budgetOf("mon"); got != want1 {
		t.Fatalf("installed budget = %+v, want %+v", got, want1)
	}

	// A probated upgrade activates the new release's budget; rollback
	// restores the previous one.
	rt.setHealth("mon", isolation.Running)
	d2 := submit(Release{Name: "mon", Vendor: "acme", Version: "2.0.0",
		Manifest: "PERM read_statistics\nBUDGET CPU_MS_PER_SEC 900"})
	if _, err := m.Upgrade(d2); err != nil {
		t.Fatal(err)
	}
	want2 := core.Budget{CPUMillisPerSec: 900}
	if got := rt.budgetOf("mon"); got != want2 {
		t.Fatalf("upgraded budget = %+v, want %+v", got, want2)
	}
	rt.setHealth("mon", isolation.Restarting)
	waitCond(t, "rollback", func() bool {
		s, _ := m.Status("mon")
		return s.Status == StatusActive && s.Version == "1.0.0"
	})
	if got := rt.budgetOf("mon"); got != want1 {
		t.Fatalf("rolled-back budget = %+v, want %+v", got, want1)
	}

	// Revoke clears the quota along with the permissions.
	if err := m.Revoke("mon"); err != nil {
		t.Fatal(err)
	}
	if got := rt.budgetOf("mon"); !got.IsZero() {
		t.Fatalf("post-revoke budget = %+v, want zero", got)
	}
}

func TestBudgetlessRuntimeIgnoresBudgets(t *testing.T) {
	// A Runtime that ignores the grant's budget must keep working: the
	// budget is simply not threaded.
	m, rt, submit := marketEnv(t, "")
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nBUDGET CPU_MS_PER_SEC 250"})
	if _, err := m.Install(d); err != nil {
		t.Fatal(err)
	}
	if got := rt.permsOf("mon"); got == nil || !got.Has(core.TokenReadStatistics) {
		t.Fatalf("permissions = %v", got)
	}
}
