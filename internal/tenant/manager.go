package tenant

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/durable"
	"sdnshield/internal/isolation"
	"sdnshield/internal/jobs"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/permengine"
)

// State is a tenant's lifecycle state.
type State string

// Tenant states.
const (
	StateActive    State = "active"
	StateSuspended State = "suspended"
)

// Config tunes a Manager. Zero values select defaults.
type Config struct {
	// Dir is the tenant store: Dir/<id>/tenant.json holds the tenant
	// record, Dir/<id>/store the market releases, Dir/<id>/jobs the job
	// WAL. "" runs everything in memory (no hydration, no persistence).
	Dir string
	// Shards is the consistent-hash shard count (default 4) and
	// ShardWorkers the concurrent calls per shard (default 2); calls run
	// on their callers' goroutines, beyond that they queue.
	Shards       int
	ShardWorkers int
	// MaxResident bounds hydrated tenants; beyond it the least recently
	// used unpinned tenant is evicted to disk. Default 1024.
	MaxResident int
	// IdleAfter evicts tenants untouched for this long (default 15m);
	// SweepInterval is the sweep cadence (default 1m, < 0 disables).
	IdleAfter     time.Duration
	SweepInterval time.Duration
	// PolicySrc and Probation configure every tenant's market.
	PolicySrc string
	Probation time.Duration
	// Admission is the default admission config for tenants created
	// without their own.
	Admission AdmissionConfig
	// JobWorkers is each tenant market's pipeline worker count (default
	// 1); DurableJobs puts each tenant's job WAL under Dir/<id>/jobs.
	JobWorkers  int
	DurableJobs bool
	// Runtime, when set, supplies the shared runtime a tenant's market
	// activates permissions into; the manager wraps it so the tenant's
	// apps cross into it namespaced "tenant/app".
	Runtime func(id string) market.Runtime
	// AdminToken, when set, gates the /tenants admin API behind
	// "Authorization: Bearer <token>". Empty leaves it open — only
	// acceptable behind a trusted network boundary.
	AdminToken string
	// Registry receives the manager's metrics (default obs.Default()).
	Registry *obs.Registry
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.ShardWorkers <= 0 {
		c.ShardWorkers = 2
	}
	if c.MaxResident <= 0 {
		c.MaxResident = 1024
	}
	if c.IdleAfter <= 0 {
		c.IdleAfter = 15 * time.Minute
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Minute
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	c.Admission.fill()
}

// record is the persisted tenant identity (Dir/<id>/tenant.json).
type record struct {
	ID        string          `json:"id"`
	Admission AdmissionConfig `json:"admission"`
	Suspended bool            `json:"suspended,omitempty"`
	CreatedAt time.Time       `json:"created_at"`
}

// Manager owns the tenant lifecycle: creation, lazy hydration from the
// on-disk store, suspension, LRU/idle eviction with pinning, and the
// shard pool every tenant's calls run on.
type Manager struct {
	cfg  Config
	pool *ShardPool
	met  *metrics

	mu         sync.Mutex
	tenants    map[string]*Tenant
	lru        *list.List // of *Tenant; back = most recently used
	closed     bool
	evictions  uint64
	hydrations uint64

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewManager builds a manager and starts its idle sweeper.
func NewManager(cfg Config) (*Manager, error) {
	cfg.fill()
	if cfg.Dir != "" {
		if err := durable.MkdirAll(cfg.Dir); err != nil {
			return nil, err
		}
	}
	pool := NewShardPool(cfg.Shards, cfg.ShardWorkers)
	m := &Manager{
		cfg:       cfg,
		pool:      pool,
		met:       newMetrics(cfg.Registry, pool),
		tenants:   make(map[string]*Tenant),
		lru:       list.New(),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	if cfg.SweepInterval > 0 {
		go m.sweeper()
	} else {
		close(m.sweepDone)
	}
	return m, nil
}

func (m *Manager) sweeper() {
	defer close(m.sweepDone)
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case <-t.C:
			m.EvictIdle(time.Now())
		}
	}
}

func (m *Manager) dirOf(id string) string   { return filepath.Join(m.cfg.Dir, id) }
func (m *Manager) storeOf(id string) string { return filepath.Join(m.cfg.Dir, id, "store") }
func (m *Manager) jobsOf(id string) string  { return filepath.Join(m.cfg.Dir, id, "jobs") }

// Create registers a new tenant under the manager's default admission
// config. ErrTenantExists if the ID is already hosted or stored.
func (m *Manager) Create(id string) (*Tenant, error) {
	return m.CreateWith(id, m.cfg.Admission)
}

// CreateWith registers a new tenant with its own admission config.
func (m *Manager) CreateWith(id string, adm AdmissionConfig) (*Tenant, error) {
	id, err := ParseID(id)
	if err != nil {
		return nil, err
	}
	adm.fill()
	rec := record{ID: id, Admission: adm, CreatedAt: time.Now()}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	if _, ok := m.tenants[id]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, id)
	}
	m.mu.Unlock()

	if m.cfg.Dir != "" {
		if _, err := os.Stat(filepath.Join(m.dirOf(id), "tenant.json")); err == nil {
			return nil, fmt.Errorf("%w: %s (stored)", ErrTenantExists, id)
		}
		if err := durable.MkdirAll(m.storeOf(id)); err != nil {
			return nil, err
		}
		if err := m.writeRecord(&rec); err != nil {
			return nil, err
		}
	}
	return m.admit(&rec, false)
}

// writeRecord persists a tenant record atomically and durably.
func (m *Manager) writeRecord(rec *record) error {
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(m.dirOf(rec.ID), "tenant.json"), raw, 0o644)
}

// Acquire resolves a tenant and marks one in-flight use of it, so a
// concurrent eviction waits for the use to end instead of closing the
// tenant's market and job manager mid-request. It retries when it loses
// the Get/close race (the closing instance is already unlinked, so the
// retry hydrates or finds a fresh one). The returned release func must
// be called exactly once when the use ends.
func (m *Manager) Acquire(id string) (*Tenant, func(), error) {
	for {
		t, err := m.Get(id)
		if err != nil {
			return nil, nil, err
		}
		if t.tryAcquire() {
			return t, t.release, nil
		}
	}
}

// Get returns a resident tenant, hydrating it from the on-disk store
// when the manager persists and the tenant exists there.
func (m *Manager) Get(id string) (*Tenant, error) {
	id, err := ParseID(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	if t, ok := m.tenants[id]; ok {
		m.mu.Unlock()
		t.touch(time.Now())
		return t, nil
	}
	m.mu.Unlock()
	if m.cfg.Dir == "" {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, id)
	}
	raw, err := os.ReadFile(filepath.Join(m.dirOf(id), "tenant.json"))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, id)
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("tenant: corrupt record for %s: %v", id, err)
	}
	rec.ID = id
	rec.Admission.fill()
	return m.admit(&rec, true)
}

// GetOrCreate returns the tenant, creating it when neither hosted nor
// stored.
func (m *Manager) GetOrCreate(id string) (*Tenant, error) {
	t, err := m.Get(id)
	if err == nil {
		return t, nil
	}
	if !errors.Is(err, ErrUnknownTenant) {
		return nil, err
	}
	t, err = m.Create(id)
	if errors.Is(err, ErrTenantExists) {
		// Lost a create race: the winner's tenant is resident now.
		return m.Get(id)
	}
	return t, err
}

// admit builds the runtime tenant for a record and registers it,
// evicting LRU victims beyond MaxResident. hydrated marks a disk load
// (for the hydration counter and the create/hydrate race: two
// concurrent Gets may both build; the loser's build is discarded).
func (m *Manager) admit(rec *record, hydrated bool) (*Tenant, error) {
	t, err := m.build(rec)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		t.close()
		return nil, ErrManagerClosed
	}
	if prior, ok := m.tenants[rec.ID]; ok {
		m.mu.Unlock()
		t.close()
		if hydrated {
			return prior, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, rec.ID)
	}
	m.tenants[rec.ID] = t
	t.elem = m.lru.PushBack(t)
	m.met.resident.Set(int64(len(m.tenants)))
	if hydrated {
		m.hydrations++
		m.met.hydrations.Inc()
	}
	victims := m.lruVictimsLocked(len(m.tenants) - m.cfg.MaxResident)
	m.mu.Unlock()

	m.closeAll(victims)
	return t, nil
}

// build constructs a tenant's market, job manager and runtime wiring.
func (m *Manager) build(rec *record) (*Tenant, error) {
	reg := market.NewRegistry()
	if m.cfg.Dir != "" {
		if _, err := os.Stat(m.storeOf(rec.ID)); err == nil {
			if _, _, err := market.LoadDir(m.storeOf(rec.ID), reg); err != nil {
				return nil, fmt.Errorf("tenant %s: store load: %w", rec.ID, err)
			}
		}
	}
	var rt market.Runtime
	if m.cfg.Runtime != nil {
		if base := m.cfg.Runtime(rec.ID); base != nil {
			rt = ScopedRuntime(base, rec.ID)
		}
	}
	mkt, err := market.New(reg, rt, market.Config{
		PolicySrc: m.cfg.PolicySrc,
		Probation: m.cfg.Probation,
		Tenant:    rec.ID,
	})
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", rec.ID, err)
	}
	jobDir := ""
	if m.cfg.DurableJobs && m.cfg.Dir != "" {
		jobDir = m.jobsOf(rec.ID)
	}
	jm, err := jobs.Open(jobs.Config{Dir: jobDir})
	if err != nil {
		mkt.Close()
		return nil, fmt.Errorf("tenant %s: jobs: %w", rec.ID, err)
	}
	mkt.AttachJobs(jm, m.cfg.JobWorkers)
	t := &Tenant{
		ID:      rec.ID,
		mgr:     m,
		shard:   m.pool.ShardOf(rec.ID),
		created: rec.CreatedAt,
		mkt:     mkt,
		jm:      jm,
		adm:     newAdmission(rec.Admission),
		admCfg:  rec.Admission,
		met:     m.met.forTenant(rec.ID),
	}
	t.drained = sync.NewCond(&t.lifeMu)
	if rec.Suspended {
		t.state.Store(string(StateSuspended))
	} else {
		t.state.Store(string(StateActive))
	}
	t.lastTouch.Store(time.Now().UnixNano())
	return t, nil
}

// lruVictimsLocked unlinks up to n least-recently-used unpinned, idle
// tenants (front of the LRU) and returns them for closing outside the
// lock. Tenants with in-flight holders are skipped — pressure relief
// must not interrupt running requests (and close would block on them).
func (m *Manager) lruVictimsLocked(n int) []*Tenant {
	if n <= 0 {
		return nil
	}
	var victims []*Tenant
	for e := m.lru.Front(); e != nil && len(victims) < n; {
		next := e.Next()
		t := e.Value.(*Tenant)
		if !t.pinned.Load() && !t.busy() {
			m.unlinkLocked(t)
			victims = append(victims, t)
		}
		e = next
	}
	return victims
}

// unlinkLocked removes a tenant from the resident set. Caller holds
// m.mu; the tenant must still be closed (outside the lock).
func (m *Manager) unlinkLocked(t *Tenant) {
	delete(m.tenants, t.ID)
	if t.elem != nil {
		m.lru.Remove(t.elem)
		t.elem = nil
	}
	m.evictions++
	m.met.resident.Set(int64(len(m.tenants)))
	m.met.evictions.Inc()
}

func (m *Manager) closeAll(ts []*Tenant) {
	for _, t := range ts {
		t.close()
	}
}

// Suspend stops a tenant's intake: scoped HTTP answers 503 and Do
// refuses with ErrSuspended. Persisted, so a suspended tenant hydrates
// suspended.
func (m *Manager) Suspend(id string) error { return m.setSuspended(id, true) }

// Resume reactivates a suspended tenant.
func (m *Manager) Resume(id string) error { return m.setSuspended(id, false) }

func (m *Manager) setSuspended(id string, suspended bool) error {
	t, err := m.Get(id)
	if err != nil {
		return err
	}
	st := StateActive
	if suspended {
		st = StateSuspended
	}
	t.state.Store(string(st))
	if m.cfg.Dir != "" {
		// Re-persist the hydrated identity — CreatedAt is the tenant's
		// original creation time, not this lifecycle toggle's.
		rec := record{ID: t.ID, Admission: t.admCfg, Suspended: suspended, CreatedAt: t.created}
		return m.writeRecord(&rec)
	}
	return nil
}

// Pin shields a tenant from idle and LRU eviction (explicit Evict still
// works). pin=false unpins.
func (m *Manager) Pin(id string, pin bool) error {
	t, err := m.Get(id)
	if err != nil {
		return err
	}
	t.pinned.Store(pin)
	return nil
}

// Evict closes a resident tenant and drops it from memory; its store
// (when the manager persists) remains for re-hydration. Works on pinned
// and busy tenants — pinning and in-flight use shield only the automatic
// eviction paths — but waits for in-flight requests to drain before the
// tenant's market and job manager close.
func (m *Manager) Evict(id string) error {
	m.mu.Lock()
	t, ok := m.tenants[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s (not resident)", ErrUnknownTenant, id)
	}
	m.unlinkLocked(t)
	m.mu.Unlock()
	t.close()
	return nil
}

// EvictIdle evicts unpinned tenants untouched for cfg.IdleAfter,
// returning how many it closed.
func (m *Manager) EvictIdle(now time.Time) int {
	cutoff := now.Add(-m.cfg.IdleAfter).UnixNano()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0
	}
	var victims []*Tenant
	for e := m.lru.Front(); e != nil; {
		next := e.Next()
		t := e.Value.(*Tenant)
		if !t.pinned.Load() && !t.busy() && t.lastTouch.Load() < cutoff {
			m.unlinkLocked(t)
			victims = append(victims, t)
		}
		e = next
	}
	m.mu.Unlock()
	m.closeAll(victims)
	return len(victims)
}

// Info is one tenant's listing for /tenants and the CLIs.
type Info struct {
	ID        string    `json:"id"`
	State     State     `json:"state"`
	Shard     int       `json:"shard"`
	Pinned    bool      `json:"pinned,omitempty"`
	Apps      int       `json:"apps"`
	Calls     uint64    `json:"calls"`
	Throttled uint64    `json:"throttled"`
	CreatedAt time.Time `json:"created_at"`
	LastTouch time.Time `json:"last_touch"`
}

// List returns the resident tenants, sorted by ID.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ts := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Info())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Stored returns the tenant IDs present in the on-disk store (resident
// or not), sorted.
func (m *Manager) Stored() []string {
	if m.cfg.Dir == "" {
		return nil
	}
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(m.cfg.Dir, e.Name(), "tenant.json")); err == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// Resident reports how many tenants are hydrated.
func (m *Manager) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tenants)
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Registry returns the manager's metrics registry.
func (m *Manager) Registry() *obs.Registry { return m.cfg.Registry }

// Close stops the sweeper, drains the shard pool (queued calls finish),
// and closes every resident tenant's market and job manager.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ts := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.tenants = make(map[string]*Tenant)
	m.lru.Init()
	m.mu.Unlock()

	close(m.stopSweep)
	<-m.sweepDone
	m.pool.Close()
	m.closeAll(ts)
	m.met.resident.Set(0)
}

// ---------------------------------------------------------------------------
// Tenant

// Tenant is one hosted tenant: a private market over a private registry,
// a private job manager, admission buckets, and a consistent shard
// placement. All methods are safe for concurrent use.
type Tenant struct {
	ID      string
	mgr     *Manager
	shard   int
	created time.Time // original creation time, carried across re-persists

	mkt    *market.Market
	jm     *jobs.Manager
	adm    *admission
	admCfg AdmissionConfig
	met    *tenantMetrics

	state     atomic.Value // string(State)
	pinned    atomic.Bool
	lastTouch atomic.Int64 // unix nanos
	lastLRU   atomic.Int64 // unix nanos of the last LRU move

	// lifeMu guards the in-flight refcount against close: holders keep
	// the market and job manager open; close marks the tenant closing
	// (refusing new holders) and waits on drained for refs to hit zero.
	lifeMu  sync.Mutex
	refs    int
	closing bool
	drained *sync.Cond

	mu   sync.Mutex
	elem *list.Element // LRU position; nil once evicted
	mux  http.Handler  // lazily built scoped surface
}

// tryAcquire marks one in-flight use of the tenant. It fails once close
// has begun — the caller should re-resolve the tenant through the
// manager, which hydrates a fresh instance (Manager.Acquire does this).
func (t *Tenant) tryAcquire() bool {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.closing {
		return false
	}
	t.refs++
	return true
}

// release ends one in-flight use, waking a close waiting for drain.
func (t *Tenant) release() {
	t.lifeMu.Lock()
	t.refs--
	if t.refs == 0 && t.closing {
		t.drained.Broadcast()
	}
	t.lifeMu.Unlock()
}

// busy reports whether the tenant has in-flight holders.
func (t *Tenant) busy() bool {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	return t.refs > 0
}

// State returns the tenant's lifecycle state.
func (t *Tenant) State() State { return State(t.state.Load().(string)) }

// Market returns the tenant's private market.
func (t *Tenant) Market() *market.Market { return t.mkt }

// Jobs returns the tenant's private job manager.
func (t *Tenant) Jobs() *jobs.Manager { return t.jm }

// Shard returns the tenant's consistent shard placement.
func (t *Tenant) Shard() int { return t.shard }

// Weight returns the tenant's fair-share weight.
func (t *Tenant) Weight() float64 { return t.admCfg.Weight }

// touch records activity for idle eviction and refreshes the LRU
// position as of now — the list move is throttled to ~1s so the hot
// path takes the manager lock at most once a second per tenant.
func (t *Tenant) touch(at time.Time) {
	now := at.UnixNano()
	t.lastTouch.Store(now)
	last := t.lastLRU.Load()
	if now-last < int64(time.Second) || !t.lastLRU.CompareAndSwap(last, now) {
		return
	}
	m := t.mgr
	m.mu.Lock()
	if t.elem != nil {
		m.lru.MoveToBack(t.elem)
	}
	m.mu.Unlock()
}

// Do runs one mediated call for the tenant on the calling goroutine:
// token-bucket admission first (hard refusal with retry-after, before
// any allocation), then weighted-fair dispatch on the tenant's shard.
// The returned error is fn's own, ErrCallPanicked if fn panicked, a
// *ThrottleError, ErrSuspended, ErrUnknownTenant (the instance was
// evicted — re-Get it), or ErrManagerClosed.
func (t *Tenant) Do(op string, fn func() error) error {
	if t.State() != StateActive {
		return fmt.Errorf("%w: %s", ErrSuspended, t.ID)
	}
	if !t.tryAcquire() {
		if t.mgr.isClosed() {
			return ErrManagerClosed
		}
		return fmt.Errorf("%w: %s (evicted)", ErrUnknownTenant, t.ID)
	}
	defer t.release()
	arrive := time.Now()
	if ok, retry := t.adm.calls.take(arrive); !ok {
		t.met.throttledCalls.Inc()
		return &ThrottleError{Tenant: t.ID, Path: "call", RetryAfter: retry}
	}
	t.touch(arrive)
	admitted, err := t.mgr.pool.run(t.shard, t.ID, t.admCfg.Weight, t.admCfg.MaxQueue, arrive, fn)
	if !admitted {
		if errors.Is(err, ErrPoolClosed) {
			return ErrManagerClosed
		}
		t.met.throttledCalls.Inc()
		return &ThrottleError{Tenant: t.ID, Path: "call", RetryAfter: 100 * time.Millisecond}
	}
	t.met.calls.Inc()
	t.met.callSeconds.Observe(time.Since(arrive))
	_ = op
	return err
}

// AdmitInstall spends one install-path token, refusing with a
// *ThrottleError when the tenant's install bucket is dry. The scoped
// HTTP surface calls it before forwarding install/upgrade/recompute.
func (t *Tenant) AdmitInstall() error {
	if t.State() != StateActive {
		return fmt.Errorf("%w: %s", ErrSuspended, t.ID)
	}
	now := time.Now()
	if ok, retry := t.adm.installs.take(now); !ok {
		t.met.throttledInstalls.Inc()
		return &ThrottleError{Tenant: t.ID, Path: "install", RetryAfter: retry}
	}
	t.touch(now)
	return nil
}

// Info returns the tenant's listing entry.
func (t *Tenant) Info() Info {
	return Info{
		ID:        t.ID,
		State:     t.State(),
		Shard:     t.shard,
		Pinned:    t.pinned.Load(),
		Apps:      len(t.mkt.Snapshot()),
		Calls:     t.met.calls.Value(),
		Throttled: t.met.throttledCalls.Value() + t.met.throttledInstalls.Value(),
		CreatedAt: t.created,
		LastTouch: time.Unix(0, t.lastTouch.Load()),
	}
}

// LatencyObjective builds a per-tenant latency SLO over the shared
// per-tenant call histogram: p(call latency < threshold) >= target.
// Register it in an obs.Engine (or the default one) to get the tenant's
// own burn-rate state on /slo.
func (t *Tenant) LatencyObjective(threshold time.Duration, target float64) obs.Objective {
	return obs.LatencyObjectiveLabeled(
		"tenant_call_latency:"+t.ID,
		fmt.Sprintf("p(mediated call < %v) for tenant %s", threshold, t.ID),
		t.mgr.cfg.Registry, "sdnshield_tenant_call_seconds", "tenant", t.met.label,
		threshold, target)
}

// close refuses new holders, waits for in-flight ones to drain, then
// shuts the tenant's market and job manager down. Idempotent via their
// own Close guards (a concurrent second close also waits for drain).
func (t *Tenant) close() {
	t.lifeMu.Lock()
	t.closing = true
	for t.refs > 0 {
		t.drained.Wait()
	}
	t.lifeMu.Unlock()
	t.mkt.Close()
	_ = t.jm.Close()
}

// ---------------------------------------------------------------------------
// Runtime namespacing

// scopedRuntime prefixes every app name with "tenant/" before touching
// the shared runtime, so per-app state on shields, the recorder and the
// audit journal is attributable to its tenant and two tenants' same-name
// apps never collide.
type scopedRuntime struct {
	rt     market.Runtime
	prefix string
}

// ScopedRuntime wraps a shared runtime in a tenant's namespace.
func ScopedRuntime(rt market.Runtime, tenant string) market.Runtime {
	return &scopedRuntime{rt: rt, prefix: tenant + "/"}
}

func (s *scopedRuntime) Activate(app string, g permengine.Grant) {
	s.rt.Activate(s.prefix+app, g)
}

func (s *scopedRuntime) AppHealth(app string) (isolation.Health, bool) {
	return s.rt.AppHealth(s.prefix + app)
}
