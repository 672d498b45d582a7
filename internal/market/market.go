package market

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/jobs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/permlang"
	"sdnshield/internal/policylang"
	"sdnshield/internal/reconcile"
)

// OpTrace is the identity of the operation driving a pipeline run: the
// audit correlation ID and the span context its stages nest under. The
// zero OpTrace means "standalone call" — the pipeline mints a fresh
// corr and opens its own root span, so direct API callers and the
// HTTP/job paths produce the same shaped trace.
type OpTrace struct {
	Corr uint64
	Span span.Context
}

// fill resolves a zero OpTrace into a live identity for the named
// operation; the returned finish seals the root span it opened, if any.
func (ot OpTrace) fill(op string) (OpTrace, func()) {
	if ot.Corr == 0 {
		ot.Corr = audit.NextCorr()
	}
	if ot.Span.Valid() {
		return ot, func() {}
	}
	root := span.Root(ot.Corr, op)
	ot.Span = root.Context()
	return ot, root.End
}

// Runtime is the slice of the shielded runtime the market drives:
// atomic permission activation and app-health probing for the probation
// monitor. *isolation.Shield satisfies it; tests substitute fakes.
type Runtime interface {
	SetPermissions(app string, set *core.Set)
	AppHealth(app string) (isolation.Health, bool)
}

// BudgetRuntime is optionally implemented by runtimes that enforce
// manifest resource budgets (BUDGET statements) as per-app soft
// quotas. *isolation.Shield implements it; activation, rollback and
// revocation thread the active release's budget through it whenever
// the configured Runtime supports it.
type BudgetRuntime interface {
	SetBudget(app string, b core.Budget)
}

// ProvenanceRuntime is optionally implemented by runtimes whose
// permission engine records reconciliation provenance: the repair notes
// attached to the active release, so /explain can report which repair
// introduced a denial's deciding term. *isolation.Shield implements it.
type ProvenanceRuntime interface {
	SetProvenance(app string, notes []string)
}

// Config tunes a Market.
type Config struct {
	// PolicySrc is the administrator's site security policy source. Its
	// digest is half of every verdict-cache key.
	PolicySrc string
	// Probation is how long an upgraded release runs under watch before
	// its permissions are committed; if the app panics or is quarantined
	// inside the window, the market rolls back to the previous release's
	// permissions. Default 10s.
	Probation time.Duration
	// ProbationPoll is the health-probe interval inside the window.
	// Default Probation/20 (min 1ms).
	ProbationPoll time.Duration
	// Cache, when non-nil, is a shared verdict cache. Several markets
	// (leader and followers, or a bench's cold/warm pair) can point at
	// one cache so a verdict computed anywhere is a hit everywhere the
	// policy digest matches. Nil builds a private cache.
	Cache *VerdictCache
	// Tenant, when set, stamps every audit event and enqueued job this
	// market emits with the owning tenant — the multi-tenant manager
	// runs one market per tenant and sets it at hydration.
	Tenant string
}

// Lifecycle errors.
var (
	// ErrNotInstalled reports an operation on an app with no installed
	// release.
	ErrNotInstalled = errors.New("market: app not installed")
	// ErrAlreadyInstalled reports Install on an app that already runs a
	// release (use Upgrade).
	ErrAlreadyInstalled = errors.New("market: app already installed (use upgrade)")
	// ErrNothingPending reports Approve with no verdict awaiting sign-off.
	ErrNothingPending = errors.New("market: nothing pending sign-off")
	// ErrNotAnUpgrade reports Upgrade to a version not newer than the
	// active release.
	ErrNotAnUpgrade = errors.New("market: version is not newer than the active release")
	// ErrRejected reports an install/upgrade whose reconciliation verdict
	// was rejection.
	ErrRejected = errors.New("market: release rejected by reconciliation")
)

// AppStatus is an installed app's lifecycle state.
type AppStatus string

// App lifecycle states.
const (
	// StatusPending: a verdict awaits administrator sign-off.
	StatusPending AppStatus = "pending sign-off"
	// StatusActive: the release's reconciled permissions are enforced.
	StatusActive AppStatus = "active"
	// StatusProbation: an upgrade is live but unconfirmed; a panic or
	// quarantine inside the window rolls back.
	StatusProbation AppStatus = "probation"
	// StatusRevoked: the administrator revoked the app; it runs with no
	// permissions.
	StatusRevoked AppStatus = "revoked"
)

// releaseRef is one activated (or activatable) release with its
// reconciled permission set.
type releaseRef struct {
	digest    Digest
	version   string
	vendor    string
	verdict   Verdict
	effective *core.Set
	// budget is the release's declared resource quota (BUDGET
	// statements in the manifest); zero when the manifest declares none.
	budget core.Budget
	// provenance renders the reconciliation violations/repairs that
	// shaped the effective set, for the runtime's /explain forensics.
	provenance []string
}

// appState is the market's view of one installed app.
type appState struct {
	name    string
	status  AppStatus
	active  *releaseRef // permissions currently enforced
	pending *releaseRef // verdict awaiting sign-off
	prev    *releaseRef // rollback target during probation
	// probationStop cancels the running probation monitor; nil outside
	// probation.
	probationStop chan struct{}
	// corr is the correlation ID of the in-flight lifecycle operation,
	// carried by every audit event the operation causes.
	corr uint64
}

// Market is the app-market lifecycle engine: it owns the registry, the
// site policy, the reconciliation engine and its verdict cache, and the
// install/upgrade/rollback state machine over a shielded runtime.
type Market struct {
	reg     *Registry
	runtime Runtime
	cfg     Config

	policy       *policylang.Policy
	policyDigest Digest
	engine       *reconcile.Engine
	cache        *VerdictCache

	mu      sync.Mutex
	apps    map[string]*appState
	wg      sync.WaitGroup
	closed  bool
	jobsMgr *jobs.Manager
	lease   *LeaderLease
}

// New builds a market over a registry and a shielded runtime. runtime
// may be nil for registry-only deployments (verdicts and diffs without
// activation). The policy source must parse; an empty source means "no
// policy" (every manifest reconciles clean).
func New(reg *Registry, runtime Runtime, cfg Config) (*Market, error) {
	if cfg.Probation <= 0 {
		cfg.Probation = 10 * time.Second
	}
	if cfg.ProbationPoll <= 0 {
		cfg.ProbationPoll = cfg.Probation / 20
		if cfg.ProbationPoll < time.Millisecond {
			cfg.ProbationPoll = time.Millisecond
		}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewVerdictCache()
	}
	m := &Market{
		reg:          reg,
		runtime:      runtime,
		cfg:          cfg,
		engine:       reconcile.New(),
		cache:        cache,
		policyDigest: PolicyDigest(cfg.PolicySrc),
		apps:         make(map[string]*appState),
	}
	if cfg.PolicySrc != "" {
		p, err := policylang.Parse(cfg.PolicySrc)
		if err != nil {
			return nil, fmt.Errorf("market: site policy does not parse: %w", err)
		}
		m.policy = p
	}
	return m, nil
}

// Registry returns the market's release registry.
func (m *Market) Registry() *Registry { return m.reg }

// Cache returns the market's verdict cache.
func (m *Market) Cache() *VerdictCache { return m.cache }

// Close stops every probation monitor and waits for them to exit.
// Releases in probation at Close time stay active uncommitted.
func (m *Market) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, st := range m.apps {
		if st.probationStop != nil {
			close(st.probationStop)
			st.probationStop = nil
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// InstallResult reports one install/upgrade pipeline run.
type InstallResult struct {
	App     string `json:"app"`
	Vendor  string `json:"vendor"`
	Version string `json:"version"`
	Digest  string `json:"digest"`
	// Verdict is the reconciliation outcome (approved / repaired /
	// rejected).
	Verdict Verdict `json:"verdict"`
	// Status is the app's lifecycle state after the run.
	Status AppStatus `json:"status"`
	// CacheHit reports whether the verdict came from the cache (no
	// Algorithm 1 run).
	CacheHit bool `json:"cache_hit"`
	// Violations lists reconciliation findings, empty when approved.
	Violations []string `json:"violations,omitempty"`
	// Effective renders the reconciled permission set in canonical
	// (sorted) order.
	Effective string `json:"effective"`
	// Corr is the correlation ID tying the operation's audit events
	// together.
	Corr uint64 `json:"corr"`
}

// reconcileRelease drives one release through parse → reconcile with the
// verdict cache in front of Algorithm 1. digest is the release's content
// address, already verified by Registry.Release.
func (m *Market) reconcileRelease(sr *SignedRelease, digest Digest) (cv *CachedVerdict, hit bool, err error) {
	return m.reconcileTraced(sr, digest, span.Context{})
}

// reconcileTraced is reconcileRelease with per-stage spans and latency
// histograms: cache_hit on the short path; parse and reconcile on the
// miss path. One clock-read pair per stage feeds both the span and the
// stage histogram, so tracing adds no timing of its own. The parse stage
// takes the manifest Submit parsed; it parses only when that hand-off is
// gone (a cache wipe, or another market on the same registry took it).
func (m *Market) reconcileTraced(sr *SignedRelease, digest Digest, sc span.Context) (cv *CachedVerdict, hit bool, err error) {
	t := time.Now()
	if cv, ok := m.cache.Get(digest, m.policyDigest); ok {
		m.reg.takeVetted(digest) // a replayed verdict needs no manifest
		d := time.Since(t)
		observeStage("cache_hit", d)
		span.Add(sc, "stage:cache_hit", t, d)
		return cv, true, nil
	}
	manifest := m.reg.takeVetted(digest)
	if manifest == nil {
		manifest, err = permlang.Parse(sr.Manifest)
	}
	d := time.Since(t)
	observeStage("parse", d)
	span.Add(sc, "stage:parse", t, d)
	if err != nil {
		return nil, false, fmt.Errorf("market: manifest does not parse: %w", err)
	}
	t = time.Now()
	res, err := m.engine.Reconcile(sr.Name, manifest, m.policy)
	d = time.Since(t)
	observeStage("reconcile", d)
	span.Add(sc, "stage:reconcile", t, d)
	if err != nil {
		return nil, false, err
	}
	verdict := classifyVerdict(res)
	cv = m.cache.Put(digest, m.policyDigest, verdict, res.Violations, res.Reconciled, res.Requested, manifest.Budget)
	return cv, false, nil
}

// classifyVerdict maps a reconciliation result to the market's
// three-way verdict: clean manifests are approved; repairs that leave a
// usable permission set await sign-off; an empty effective set or an
// unresolvable policy reference rejects the release.
func classifyVerdict(res *reconcile.Result) Verdict {
	if res.Clean {
		return VerdictApproved
	}
	for _, v := range res.Violations {
		if v.Kind == reconcile.ViolationUnknownReference {
			return VerdictRejected
		}
	}
	if res.Reconciled.Len() == 0 {
		return VerdictRejected
	}
	return VerdictRepaired
}

// Evaluate runs verify → parse → reconcile for a stored release without
// touching app state — the administrator's "what would this install do"
// query, also used by CLI reports. The verdict still lands in the cache,
// so a later Install of the same release is a hit.
func (m *Market) Evaluate(d Digest) (*InstallResult, error) {
	sr, err := m.reg.Release(d)
	if err != nil {
		return nil, err
	}
	cv, hit, err := m.reconcileRelease(sr, d)
	if err != nil {
		return nil, err
	}
	return m.buildResult(sr, d, cv, hit, 0), nil
}

// Recompute re-runs reconciliation for every stored release of app (all
// apps when "") with the verdict cache bypassed on the way in and
// refreshed on the way out — the recovery path after an engine fix or a
// cache wipe, run as a market.recompute job so a registry-wide sweep
// never blocks an HTTP request. Returns how many verdicts were rebuilt.
func (m *Market) Recompute(app string) (int, error) {
	apps := []string{app}
	if app == "" {
		apps = m.reg.Apps()
	}
	n := 0
	for _, a := range apps {
		for _, sr := range m.reg.Releases(a) {
			manifest, err := permlang.Parse(sr.Manifest)
			if err != nil {
				return n, fmt.Errorf("market: manifest of %s@%s does not parse: %w", sr.Name, sr.Version, err)
			}
			res, err := m.engine.Reconcile(sr.Name, manifest, m.policy)
			if err != nil {
				return n, err
			}
			m.cache.Put(sr.Digest(), m.policyDigest, classifyVerdict(res), res.Violations, res.Reconciled, res.Requested, manifest.Budget)
			n++
		}
	}
	if app != "" && n == 0 {
		return 0, fmt.Errorf("%w: app %q has no stored releases", ErrUnknownRelease, app)
	}
	return n, nil
}

// Install runs the install pipeline for a stored release: provenance
// re-check, reconciliation (through the verdict cache), then — for
// approved verdicts — atomic activation into the runtime. Repaired
// verdicts park as pending sign-off (Approve activates them); rejected
// verdicts return ErrRejected.
func (m *Market) Install(d Digest) (*InstallResult, error) {
	return m.InstallTraced(d, OpTrace{})
}

// InstallTraced is Install under a caller-supplied operation identity:
// the HTTP ingress and the job spine pass the corr they minted at the
// boundary (plus the span context to nest stages under), so the trace
// at /trace/<corr> and the audit trail share one ID end to end.
func (m *Market) InstallTraced(d Digest, ot OpTrace) (*InstallResult, error) {
	tVerify := time.Now()
	sr, err := m.reg.Release(d)
	dVerify := time.Since(tVerify)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if st, ok := m.apps[sr.Name]; ok && st.active != nil && st.status != StatusRevoked {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s@%s is %s", ErrAlreadyInstalled, sr.Name, st.active.version, st.status)
	}
	m.mu.Unlock()

	ot, finish := ot.fill("market:install:" + sr.Name)
	defer finish()
	defer func(t0 time.Time) { mInstallSeconds.Observe(time.Since(t0)) }(tVerify)
	corr := ot.Corr
	observeStage("verify", dVerify)
	span.Add(ot.Span, "stage:verify", tVerify, dVerify)
	cv, hit, err := m.reconcileTraced(sr, d, ot.Span)
	if err != nil {
		return nil, err
	}
	result := m.buildResult(sr, d, cv, hit, corr)

	switch cv.Verdict {
	case VerdictRejected:
		m.emit("install", audit.VerdictReject, sr.Name, corr,
			fmt.Sprintf("release %s@%s rejected: %s", sr.Name, sr.Version, firstViolation(cv)))
		return result, fmt.Errorf("%w: %s@%s", ErrRejected, sr.Name, sr.Version)
	case VerdictRepaired:
		m.setPending(sr, d, cv, corr)
		result.Status = StatusPending
		m.emit("install", audit.VerdictViolation, sr.Name, corr,
			fmt.Sprintf("release %s@%s repaired, pending sign-off (%d violations)", sr.Name, sr.Version, len(cv.Violations)))
		return result, nil
	default: // approved
		tAct := time.Now()
		m.activate(sr.Name, refOf(sr, d, cv), corr, false, "install", audit.VerdictInstall,
			fmt.Sprintf("release %s@%s approved and activated", sr.Name, sr.Version))
		dAct := time.Since(tAct)
		observeStage("activate", dAct)
		span.Add(ot.Span, "stage:activate", tAct, dAct)
		result.Status = StatusActive
		countLifecycle("install")
		return result, nil
	}
}

// Upgrade runs the install pipeline for a newer release of an installed
// app. Approved upgrades activate immediately but enter a probation
// window; repaired upgrades wait for sign-off first.
func (m *Market) Upgrade(d Digest) (*InstallResult, error) {
	return m.UpgradeTraced(d, OpTrace{})
}

// UpgradeTraced is Upgrade under a caller-supplied operation identity;
// see InstallTraced.
func (m *Market) UpgradeTraced(d Digest, ot OpTrace) (*InstallResult, error) {
	tVerify := time.Now()
	sr, err := m.reg.Release(d)
	dVerify := time.Since(tVerify)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	st, ok := m.apps[sr.Name]
	if !ok || st.active == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotInstalled, sr.Name)
	}
	newV, err := ParseVersion(sr.Version)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	curV, _ := ParseVersion(st.active.version)
	if newV.Compare(curV) <= 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (active %s)", ErrNotAnUpgrade, sr.Version, st.active.version)
	}
	m.mu.Unlock()

	ot, finish := ot.fill("market:upgrade:" + sr.Name)
	defer finish()
	defer func(t0 time.Time) { mInstallSeconds.Observe(time.Since(t0)) }(tVerify)
	corr := ot.Corr
	observeStage("verify", dVerify)
	span.Add(ot.Span, "stage:verify", tVerify, dVerify)
	cv, hit, err := m.reconcileTraced(sr, d, ot.Span)
	if err != nil {
		return nil, err
	}
	result := m.buildResult(sr, d, cv, hit, corr)

	switch cv.Verdict {
	case VerdictRejected:
		m.emit("upgrade", audit.VerdictReject, sr.Name, corr,
			fmt.Sprintf("upgrade to %s@%s rejected: %s", sr.Name, sr.Version, firstViolation(cv)))
		return result, fmt.Errorf("%w: %s@%s", ErrRejected, sr.Name, sr.Version)
	case VerdictRepaired:
		m.setPending(sr, d, cv, corr)
		result.Status = StatusPending
		m.emit("upgrade", audit.VerdictViolation, sr.Name, corr,
			fmt.Sprintf("upgrade to %s@%s repaired, pending sign-off (%d violations)", sr.Name, sr.Version, len(cv.Violations)))
		return result, nil
	default: // approved
		tAct := time.Now()
		m.activate(sr.Name, refOf(sr, d, cv), corr, true, "upgrade", audit.VerdictUpgrade,
			fmt.Sprintf("upgrade to %s@%s activated, probation %v", sr.Name, sr.Version, m.cfg.Probation))
		dAct := time.Since(tAct)
		observeStage("activate", dAct)
		span.Add(ot.Span, "stage:activate", tAct, dAct)
		result.Status = StatusProbation
		countLifecycle("upgrade")
		return result, nil
	}
}

// Approve signs off a pending repaired verdict, activating its
// (MEET-ed) effective permission set. An approval that replaces an
// already-active release behaves like an upgrade: it enters probation.
func (m *Market) Approve(app string) (*InstallResult, error) {
	m.mu.Lock()
	st, ok := m.apps[app]
	if !ok || st.pending == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNothingPending, app)
	}
	pending := st.pending
	isUpgrade := st.active != nil && st.status != StatusRevoked
	m.mu.Unlock()

	corr := audit.NextCorr()
	status := StatusActive
	if isUpgrade {
		status = StatusProbation
	}
	m.activate(app, pending, corr, isUpgrade, "approve", audit.VerdictApprove,
		fmt.Sprintf("signed off %s@%s (%s); now %s", app, pending.version, pending.verdict, status))
	countLifecycle("approve")

	sr, err := m.reg.Release(pending.digest)
	if err != nil {
		return nil, err
	}
	cv, _, err := m.reconcileRelease(sr, pending.digest) // cache hit by construction
	if err != nil {
		return nil, err
	}
	result := m.buildResult(sr, pending.digest, cv, true, corr)
	result.Status = status
	return result, nil
}

// Revoke removes an app's permissions entirely (the paper's kill switch
// for a compromised release). The registry entry survives; a later
// Install may re-activate.
func (m *Market) Revoke(app string) error {
	m.mu.Lock()
	st, ok := m.apps[app]
	if !ok || st.active == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotInstalled, app)
	}
	if st.probationStop != nil {
		close(st.probationStop)
		st.probationStop = nil
	}
	st.status = StatusRevoked
	st.pending = nil
	st.prev = nil
	corr := audit.NextCorr()
	st.corr = corr
	m.emit("revoke", audit.VerdictRevoke, app, corr, "permissions revoked")
	m.mu.Unlock()

	if m.runtime != nil {
		m.runtime.SetPermissions(app, core.NewSet())
		m.pushBudget(app, core.Budget{})
		m.pushProvenance(app, nil)
	}
	countLifecycle("revoke")
	gActiveApps.Add(-1)
	return nil
}

// setPending parks a repaired verdict for sign-off.
func (m *Market) setPending(sr *SignedRelease, d Digest, cv *CachedVerdict, corr uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stateLocked(sr.Name)
	st.pending = refOf(sr, d, cv)
	st.corr = corr
	if st.active == nil {
		st.status = StatusPending
	}
}

// pushBudget threads a release's declared resource budget into the
// runtime when it supports quotas. A zero budget clears any quota.
func (m *Market) pushBudget(app string, b core.Budget) {
	if m.runtime == nil {
		return
	}
	if br, ok := m.runtime.(BudgetRuntime); ok {
		br.SetBudget(app, b)
	}
}

// pushProvenance threads the active release's reconciliation notes into
// the runtime when it records them. nil clears.
func (m *Market) pushProvenance(app string, notes []string) {
	if m.runtime == nil {
		return
	}
	if pr, ok := m.runtime.(ProvenanceRuntime); ok {
		pr.SetProvenance(app, notes)
	}
}

// activate installs a release's effective permissions atomically and,
// for upgrades, arms the probation monitor with the previous release as
// the rollback target. op, v and detail are the transition's journal
// event, emitted like every lifecycle event inside the critical section
// that changes the app's state: a reader of Status or ActivePermissions
// never sees a transition that is not yet journaled (emit never blocks).
func (m *Market) activate(app string, ref *releaseRef, corr uint64, probated bool, op string, v audit.Verdict, detail string) {
	m.mu.Lock()
	st := m.stateLocked(app)
	if st.probationStop != nil {
		// A new activation supersedes any in-flight probation; the old
		// monitor must not roll back over it.
		close(st.probationStop)
		st.probationStop = nil
		gProbations.Add(-1)
	}
	wasRunning := st.active != nil && st.status != StatusRevoked
	if probated && wasRunning {
		st.prev = st.active
	} else {
		st.prev = nil
	}
	st.active = ref
	st.pending = nil
	st.corr = corr
	if !wasRunning {
		gActiveApps.Add(1)
	}
	var stop chan struct{}
	if probated && st.prev != nil {
		st.status = StatusProbation
		stop = make(chan struct{})
		st.probationStop = stop
		gProbations.Add(1)
	} else {
		st.status = StatusActive
	}
	m.emit(op, v, app, corr, detail)
	m.mu.Unlock()

	if m.runtime != nil {
		m.runtime.SetPermissions(app, ref.effective.Clone())
		m.pushBudget(app, ref.budget)
		m.pushProvenance(app, ref.provenance)
	}
	if stop != nil {
		m.wg.Add(1)
		go m.superviseProbation(app, ref, stop, corr)
	}
}

// superviseProbation watches an upgraded app through its window: a
// panic (Restarting) or quarantine rolls the permissions back to the
// previous release; surviving the window commits the upgrade.
func (m *Market) superviseProbation(app string, ref *releaseRef, stop chan struct{}, corr uint64) {
	defer m.wg.Done()
	deadline := time.NewTimer(m.cfg.Probation)
	defer deadline.Stop()
	tick := time.NewTicker(m.cfg.ProbationPoll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-deadline.C:
			m.commitUpgrade(app, ref, stop, corr)
			return
		case <-tick.C:
			if m.runtime == nil {
				continue
			}
			h, ok := m.runtime.AppHealth(app)
			if !ok {
				continue // not launched yet; permissions alone can't fail probation
			}
			if h == isolation.Restarting || h == isolation.Quarantined {
				m.rollback(app, ref, stop, corr, h)
				return
			}
		}
	}
}

// commitUpgrade finalizes a probated upgrade after a healthy window.
func (m *Market) commitUpgrade(app string, ref *releaseRef, stop chan struct{}, corr uint64) {
	m.mu.Lock()
	st, ok := m.apps[app]
	if !ok || st.probationStop != stop {
		m.mu.Unlock()
		return // superseded
	}
	st.probationStop = nil
	st.prev = nil
	st.status = StatusActive
	m.emit("commit", audit.VerdictApprove, app, corr,
		fmt.Sprintf("upgrade to %s@%s survived probation; committed", app, ref.version))
	m.mu.Unlock()
	gProbations.Add(-1)
	countLifecycle("commit")
}

// rollback reverts a probated upgrade to the previous release's
// permissions.
func (m *Market) rollback(app string, ref *releaseRef, stop chan struct{}, corr uint64, h isolation.Health) {
	m.mu.Lock()
	st, ok := m.apps[app]
	if !ok || st.probationStop != stop || st.prev == nil {
		m.mu.Unlock()
		return // superseded
	}
	prev := st.prev
	st.probationStop = nil
	st.prev = nil
	st.active = prev
	st.status = StatusActive
	m.emit("rollback", audit.VerdictRollback, app, corr,
		fmt.Sprintf("app %s during probation of %s@%s; rolled back to %s", h, app, ref.version, prev.version))
	m.mu.Unlock()

	if m.runtime != nil {
		m.runtime.SetPermissions(app, prev.effective.Clone())
		m.pushBudget(app, prev.budget)
		m.pushProvenance(app, prev.provenance)
	}
	gProbations.Add(-1)
	countLifecycle("rollback")
}

func (m *Market) stateLocked(app string) *appState {
	st, ok := m.apps[app]
	if !ok {
		st = &appState{name: app}
		m.apps[app] = st
	}
	return st
}

func (m *Market) buildResult(sr *SignedRelease, d Digest, cv *CachedVerdict, hit bool, corr uint64) *InstallResult {
	res := &InstallResult{
		App:       sr.Name,
		Vendor:    sr.Vendor,
		Version:   sr.Version,
		Digest:    d.String(),
		Verdict:   cv.Verdict,
		CacheHit:  hit,
		Effective: cv.effective.SortedString(),
		Corr:      corr,
	}
	for _, v := range cv.Violations {
		res.Violations = append(res.Violations, v.String())
	}
	return res
}

func firstViolation(cv *CachedVerdict) string {
	if len(cv.Violations) == 0 {
		return "empty effective permission set"
	}
	return cv.Violations[0].String()
}

// emit records one market lifecycle audit event.
func (m *Market) emit(op string, v audit.Verdict, app string, corr uint64, detail string) {
	if !audit.On() {
		return
	}
	audit.Emit(audit.Event{
		Kind: audit.KindMarket, Verdict: v, App: app, Op: op, Corr: corr, Detail: detail,
		Tenant: m.cfg.Tenant,
	})
}

// ---------------------------------------------------------------------------
// Introspection

// AppSnapshot is one installed app's state for /market/apps and CLI
// listings.
type AppSnapshot struct {
	App     string    `json:"app"`
	Status  AppStatus `json:"status"`
	Version string    `json:"version,omitempty"`
	Vendor  string    `json:"vendor,omitempty"`
	Digest  string    `json:"digest,omitempty"`
	Verdict Verdict   `json:"verdict,omitempty"`
	// Effective renders the enforced permission set, canonical order.
	Effective string `json:"effective,omitempty"`
	// PendingVersion is the version awaiting sign-off, if any.
	PendingVersion string `json:"pending_version,omitempty"`
	// PrevVersion is the rollback target while in probation.
	PrevVersion string `json:"prev_version,omitempty"`
	// Releases lists every registry version for the app, ascending.
	Releases []string `json:"releases,omitempty"`
}

// Snapshot reports every app the market knows about (installed or with
// registry releases), sorted by name.
func (m *Market) Snapshot() []AppSnapshot {
	names := m.reg.Apps()
	m.mu.Lock()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for n := range m.apps {
		if !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	states := make(map[string]*appState, len(m.apps))
	for n, st := range m.apps {
		states[n] = st
	}
	m.mu.Unlock()

	out := make([]AppSnapshot, 0, len(names))
	for _, n := range names {
		snap := AppSnapshot{App: n}
		for _, rel := range m.reg.Releases(n) {
			snap.Releases = append(snap.Releases, rel.Version)
		}
		m.mu.Lock()
		if st, ok := states[n]; ok {
			snap.Status = st.status
			if st.active != nil {
				snap.Version = st.active.version
				snap.Vendor = st.active.vendor
				snap.Digest = st.active.digest.String()
				snap.Verdict = st.active.verdict
				snap.Effective = st.active.effective.SortedString()
			}
			if st.pending != nil {
				snap.PendingVersion = st.pending.version
			}
			if st.prev != nil {
				snap.PrevVersion = st.prev.version
			}
		}
		m.mu.Unlock()
		out = append(out, snap)
	}
	return out
}

// Status returns one app's snapshot.
func (m *Market) Status(app string) (AppSnapshot, bool) {
	for _, s := range m.Snapshot() {
		if s.App == app {
			return s, true
		}
	}
	return AppSnapshot{}, false
}

// ActivePermissions returns a copy of the permission set the market
// last activated for the app.
func (m *Market) ActivePermissions(app string) (*core.Set, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.apps[app]
	if !ok || st.active == nil {
		return nil, false
	}
	return st.active.effective.Clone(), true
}

// DiffReleases renders the permission-diff report between two stored
// releases of the same app, comparing their reconciled effective sets
// (what would actually be enforced under the site policy).
func (m *Market) DiffReleases(from, to Digest) (string, []DiffEntry, error) {
	fromRel, err := m.reg.Release(from)
	if err != nil {
		return "", nil, err
	}
	toRel, err := m.reg.Release(to)
	if err != nil {
		return "", nil, err
	}
	if fromRel.Name != toRel.Name {
		return "", nil, fmt.Errorf("%w: diff across different apps (%s vs %s)", ErrBadRequest, fromRel.Name, toRel.Name)
	}
	fromCV, _, err := m.reconcileRelease(fromRel, from)
	if err != nil {
		return "", nil, err
	}
	toCV, _, err := m.reconcileRelease(toRel, to)
	if err != nil {
		return "", nil, err
	}
	entries := DiffSets(fromCV.effective, toCV.effective)
	return FormatDiff(fromRel.Name, fromRel.Version, toRel.Version, entries), entries, nil
}

// DiffLatest renders the diff between an app's two highest versions —
// the "what changed since the release I'm running" admin view.
func (m *Market) DiffLatest(app string) (string, []DiffEntry, error) {
	rels := m.reg.Releases(app)
	if len(rels) == 0 {
		return "", nil, fmt.Errorf("%w: app %q has no stored releases", ErrUnknownRelease, app)
	}
	if len(rels) < 2 {
		return "", nil, fmt.Errorf("%w: app %q has one release; need two to diff", ErrBadRequest, app)
	}
	return m.DiffReleases(rels[len(rels)-2].Digest(), rels[len(rels)-1].Digest())
}

func refOf(sr *SignedRelease, d Digest, cv *CachedVerdict) *releaseRef {
	ref := &releaseRef{
		digest:    d,
		version:   sr.Version,
		vendor:    sr.Vendor,
		verdict:   cv.Verdict,
		effective: cv.Effective(),
		budget:    cv.budget,
	}
	for _, v := range cv.Violations {
		ref.provenance = append(ref.provenance, v.String())
	}
	return ref
}
