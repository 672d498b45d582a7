package tenant

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/obs"
)

func TestParseID(t *testing.T) {
	good := []string{"a", "acme", "tenant-1", "t0.prod", "a_b-c.d", strings.Repeat("x", MaxIDLen)}
	for _, id := range good {
		if got, err := ParseID(id); err != nil || got != id {
			t.Errorf("ParseID(%q) = %q, %v; want accepted", id, got, err)
		}
	}
	bad := []string{
		"", strings.Repeat("x", MaxIDLen+1), // length
		"Acme", "a b", "a/b", "a\\b", "a\x00b", // charset
		".hidden", "-lead", "_lead", // first char
		"..", "a..b", "a.._", // traversal
	}
	for _, id := range bad {
		if _, err := ParseID(id); !errors.Is(err, ErrBadTenantID) {
			t.Errorf("ParseID(%q) err = %v, want ErrBadTenantID", id, err)
		}
	}
}

func TestFromRequest(t *testing.T) {
	// The header is mandatory: the bare path never grants an identity.
	r := httptest.NewRequest("GET", "/t/acme/market/apps", nil)
	if _, _, err := FromRequest(r); !errors.Is(err, ErrNoTenantHeader) {
		t.Fatalf("headerless err = %v, want ErrNoTenantHeader", err)
	}
	r.Header.Set(HeaderTenant, "acme")
	id, rest, err := FromRequest(r)
	if err != nil || id != "acme" || rest != "/market/apps" {
		t.Fatalf("FromRequest = %q, %q, %v", id, rest, err)
	}

	// Bare tenant root.
	r = httptest.NewRequest("GET", "/t/acme", nil)
	r.Header.Set(HeaderTenant, "acme")
	if id, rest, err = FromRequest(r); err != nil || id != "acme" || rest != "/" {
		t.Fatalf("bare root: %q, %q, %v", id, rest, err)
	}

	// A disagreeing header is rejected.
	r = httptest.NewRequest("GET", "/t/acme/audit", nil)
	r.Header.Set(HeaderTenant, "evil")
	if _, _, err = FromRequest(r); !errors.Is(err, ErrTenantMismatch) {
		t.Fatalf("disagreeing header err = %v, want ErrTenantMismatch", err)
	}

	// Traversal and malformed IDs are refused at the ingress, header or
	// not — the path ID is validated before the header is consulted.
	for _, p := range []string{"/t/", "/t/../audit", "/t/UP/market/apps", "/market/apps"} {
		r = httptest.NewRequest("GET", p, nil)
		r.Header.Set(HeaderTenant, "acme")
		if _, _, err = FromRequest(r); err == nil {
			t.Errorf("FromRequest(%q) accepted", p)
		}
	}
}

func TestJumpHashConsistency(t *testing.T) {
	// Stable: same key, same bucket.
	for _, id := range []string{"acme", "globex", "initech"} {
		if jumpHash(fnv64a(id), 16) != jumpHash(fnv64a(id), 16) {
			t.Fatalf("jumpHash unstable for %q", id)
		}
	}
	// In range, and growing the bucket count relocates only a minority
	// of keys (the consistency property: ~1/n move).
	const keys = 1000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fnv64a("tenant-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + strings.Repeat("y", i%5))
		b16 := jumpHash(key, 16)
		b17 := jumpHash(key, 17)
		if b16 < 0 || b16 >= 16 || b17 < 0 || b17 >= 17 {
			t.Fatalf("bucket out of range: %d / %d", b16, b17)
		}
		if b16 != b17 {
			moved++
		}
	}
	if moved > keys/4 { // expected ~1/17 ≈ 6%
		t.Fatalf("growing 16→17 buckets moved %d/%d keys", moved, keys)
	}
}

func TestShardPoolWeightedFairness(t *testing.T) {
	pool := NewShardPool(1, 1)
	defer pool.Close()

	// Occupy the single worker so both flows become backlogged before
	// any service happens.
	plugGate := make(chan struct{})
	plugRunning := make(chan struct{})
	go pool.Run("plug", 1, 0, func() { close(plugRunning); <-plugGate })
	<-plugRunning

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	const perFlow = 30
	enqueue := func(key string, weight float64) {
		for i := 0; i < perFlow; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = pool.Run(key, weight, 0, func() {
					mu.Lock()
					order = append(order, key)
					mu.Unlock()
				})
			}()
		}
	}
	enqueue("light", 1)
	enqueue("heavy", 2)
	// Wait for the full backlog to queue, then release the worker.
	for deadline := time.Now().Add(5 * time.Second); pool.Depth(0) < 2*perFlow; {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never formed: depth %d", pool.Depth(0))
		}
		time.Sleep(time.Millisecond)
	}
	close(plugGate)
	wg.Wait()

	heavyFirst := 0
	for _, k := range order[:perFlow] {
		if k == "heavy" {
			heavyFirst++
		}
	}
	// Weight 2 vs 1 should service ~2/3 of the first perFlow completions
	// from the heavy flow (exactly 20 of 30 modulo virtual-time ties).
	if heavyFirst < 17 || heavyFirst > 23 {
		t.Fatalf("heavy flow got %d of first %d slots, want ~%d", heavyFirst, perFlow, perFlow*2/3)
	}
}

func TestShardPoolPanicAndClose(t *testing.T) {
	pool := NewShardPool(2, 1)
	// A panicking call returns ErrCallPanicked to its submitter and
	// frees its slot.
	if err := pool.Run("acme", 1, 0, func() { panic("boom") }); !errors.Is(err, ErrCallPanicked) {
		t.Fatalf("panicking Run err = %v, want ErrCallPanicked", err)
	}
	ran := false
	if err := pool.Run("acme", 1, 0, func() { ran = true }); err != nil || !ran {
		t.Fatalf("post-panic Run = %v, ran = %v", err, ran)
	}
	pool.Close()
	if err := pool.Run("acme", 1, 0, func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run after Close err = %v, want ErrPoolClosed", err)
	}
}

func TestShardPoolMaxQueue(t *testing.T) {
	pool := NewShardPool(1, 1)
	defer pool.Close()
	plugGate := make(chan struct{})
	plugRunning := make(chan struct{})
	go pool.Run("plug", 1, 0, func() { close(plugRunning); <-plugGate })
	<-plugRunning

	queued := make(chan error, 2)
	go func() { queued <- pool.Run("acme", 1, 1, func() {}) }()
	for deadline := time.Now().Add(5 * time.Second); pool.Depth(0) < 1; {
		if time.Now().After(deadline) {
			t.Fatal("first call never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Flow backlog is at its bound: the next arrival is refused now, not
	// queued.
	if err := pool.Run("acme", 1, 1, func() {}); err == nil {
		t.Fatal("over-bound arrival was accepted")
	}
	close(plugGate)
	if err := <-queued; err != nil {
		t.Fatalf("bounded call err = %v", err)
	}
}

func TestAdmissionBucket(t *testing.T) {
	b := newBucket(10, 2)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(time.Now()); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, retry := b.take(time.Now())
	if ok || retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("drained bucket: ok=%v retry=%v", ok, retry)
	}
	time.Sleep(150 * time.Millisecond) // 10/s accrues 1 token in 100ms
	if ok, _ := b.take(time.Now()); !ok {
		t.Fatal("token did not accrue")
	}
	// nil bucket is unlimited.
	var nb *bucket
	if ok, _ := nb.take(time.Now()); !ok {
		t.Fatal("nil bucket refused")
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = -1 // tests drive EvictIdle explicitly
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})

	a, err := m.Create("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("acme"); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate Create err = %v", err)
	}
	if _, err := m.Get("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Get unknown err = %v", err)
	}
	if got, err := m.Get("acme"); err != nil || got != a {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if a.Shard() != m.pool.ShardOf("acme") {
		t.Fatal("tenant shard disagrees with pool placement")
	}

	// Suspension gates Do and survives evict + rehydrate.
	if err := m.Suspend("acme"); err != nil {
		t.Fatal(err)
	}
	if err := a.Do("op", func() error { return nil }); !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspended Do err = %v", err)
	}
	if err := m.Evict("acme"); err != nil {
		t.Fatal(err)
	}
	if m.Resident() != 0 {
		t.Fatalf("resident after evict = %d", m.Resident())
	}
	a2, err := m.Get("acme") // lazy hydration from dir/acme/tenant.json
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a {
		t.Fatal("Get returned the evicted instance")
	}
	if a2.State() != StateSuspended {
		t.Fatalf("rehydrated state = %v, want suspended", a2.State())
	}
	if err := m.Resume("acme"); err != nil {
		t.Fatal(err)
	}
	if err := a2.Do("op", func() error { return nil }); err != nil {
		t.Fatalf("resumed Do err = %v", err)
	}

	// Stored sees both resident and evicted tenants.
	if _, err := m.Create("globex"); err != nil {
		t.Fatal(err)
	}
	if stored := m.Stored(); len(stored) != 2 || stored[0] != "acme" || stored[1] != "globex" {
		t.Fatalf("Stored = %v", stored)
	}
	if infos := m.List(); len(infos) != 2 {
		t.Fatalf("List = %v", infos)
	}

	// GetOrCreate: existing returns it, new creates.
	if got, err := m.GetOrCreate("acme"); err != nil || got != a2 {
		t.Fatalf("GetOrCreate existing = %v, %v", got, err)
	}
	if _, err := m.GetOrCreate("initech"); err != nil {
		t.Fatal(err)
	}

	m.Close()
	if _, err := m.Get("acme"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Get after Close err = %v", err)
	}
	if err := a2.Do("op", func() error { return nil }); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Do after Close err = %v", err)
	}
}

func TestManagerIdleEvictionAndPinning(t *testing.T) {
	m := newTestManager(t, Config{Dir: t.TempDir(), IdleAfter: time.Minute})
	for _, id := range []string{"idle1", "idle2", "pinned"} {
		if _, err := m.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Pin("pinned", true); err != nil {
		t.Fatal(err)
	}
	if n := m.EvictIdle(time.Now()); n != 0 {
		t.Fatalf("fresh tenants evicted: %d", n)
	}
	if n := m.EvictIdle(time.Now().Add(time.Hour)); n != 2 {
		t.Fatalf("idle eviction closed %d tenants, want 2", n)
	}
	if m.Resident() != 1 {
		t.Fatalf("resident = %d, want the pinned one", m.Resident())
	}
	if _, err := m.Get("pinned"); err != nil {
		t.Fatal("pinned tenant gone")
	}
	// Explicit Evict overrides the pin.
	if err := m.Evict("pinned"); err != nil {
		t.Fatal(err)
	}
	if m.Resident() != 0 {
		t.Fatal("explicit evict did not remove pinned tenant")
	}
}

func TestManagerLRUPressure(t *testing.T) {
	m := newTestManager(t, Config{Dir: t.TempDir(), MaxResident: 2})
	for _, id := range []string{"t1", "t2"} {
		if _, err := m.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	// Touch t1 so t2 is the LRU victim when t3 arrives.
	if _, err := m.Get("t1"); err != nil {
		t.Fatal(err)
	}
	// touch() throttles LRU moves to ~1s; force the position directly by
	// waiting out the throttle window is too slow for a unit test, so
	// create order decides here: t1 was created first but Get re-ordered
	// is throttled — instead just verify the bound holds and an evicted
	// tenant rehydrates.
	if _, err := m.Create("t3"); err != nil {
		t.Fatal(err)
	}
	if m.Resident() != 2 {
		t.Fatalf("resident = %d, want MaxResident bound 2", m.Resident())
	}
	// All three remain reachable (evicted one hydrates back, evicting
	// another).
	for _, id := range []string{"t1", "t2", "t3"} {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("Get(%q) after LRU pressure: %v", id, err)
		}
		if m.Resident() > 2 {
			t.Fatalf("resident %d exceeds bound", m.Resident())
		}
	}
}

// TestEvictWaitsForInflight pins the eviction/in-flight race: an
// explicit Evict must not close the tenant's market and job manager
// under a running call — it waits for the call to drain, and the
// evicted instance then refuses new work with a typed error.
func TestEvictWaitsForInflight(t *testing.T) {
	m := newTestManager(t, Config{})
	a, err := m.Create("acme")
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- a.Do("op", func() error {
			close(started)
			<-gate
			return nil
		})
	}()
	<-started

	evicted := make(chan error, 1)
	go func() { evicted <- m.Evict("acme") }()
	select {
	case err := <-evicted:
		t.Fatalf("Evict returned (%v) while a call was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Do err = %v", err)
	}
	if err := <-evicted; err != nil {
		t.Fatalf("Evict err = %v", err)
	}
	if err := a.Do("op", func() error { return nil }); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("post-evict Do err = %v, want ErrUnknownTenant", err)
	}
}

// TestEvictIdleSkipsBusyTenant: the automatic sweep never takes a tenant
// with in-flight holders, however stale its last touch looks.
func TestEvictIdleSkipsBusyTenant(t *testing.T) {
	m := newTestManager(t, Config{IdleAfter: time.Minute})
	a, err := m.Create("busy")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- a.Do("op", func() error {
			close(started)
			<-gate
			return nil
		})
	}()
	<-started
	if n := m.EvictIdle(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("sweep evicted %d busy tenants", n)
	}
	if m.Resident() != 1 {
		t.Fatalf("busy tenant gone: resident = %d", m.Resident())
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Do err = %v", err)
	}
	// Drained, the same sweep takes it.
	if n := m.EvictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("post-drain sweep evicted %d, want 1", n)
	}
}

// TestSuspendPreservesCreatedAt: lifecycle toggles re-persist the
// tenant record without clobbering its original creation timestamp.
func TestSuspendPreservesCreatedAt(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	if _, err := m.Create("acme"); err != nil {
		t.Fatal(err)
	}
	readCreated := func() time.Time {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "acme", "tenant.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		return rec.CreatedAt
	}
	orig := readCreated()
	if orig.IsZero() {
		t.Fatal("created record lacks CreatedAt")
	}
	if err := m.Suspend("acme"); err != nil {
		t.Fatal(err)
	}
	if err := m.Resume("acme"); err != nil {
		t.Fatal(err)
	}
	if got := readCreated(); !got.Equal(orig) {
		t.Fatalf("CreatedAt after suspend/resume = %v, want %v", got, orig)
	}
	// Survives eviction + rehydration before the next toggle too.
	if err := m.Evict("acme"); err != nil {
		t.Fatal(err)
	}
	if err := m.Suspend("acme"); err != nil {
		t.Fatal(err)
	}
	if got := readCreated(); !got.Equal(orig) {
		t.Fatalf("CreatedAt after rehydrate+suspend = %v, want %v", got, orig)
	}
}

func TestTenantThrottling(t *testing.T) {
	m := newTestManager(t, Config{}) // memory-only
	a, err := m.CreateWith("acme", AdmissionConfig{
		CallsPerSec: 0.0001, CallBurst: 2,
		InstallsPerSec: 0.0001, InstallBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := a.Do("op", func() error { return nil }); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	err = a.Do("op", func() error { return nil })
	if !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("drained Do err = %v, want ErrTenantThrottled", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) || te.Tenant != "acme" || te.Path != "call" || te.RetryAfter <= 0 {
		t.Fatalf("throttle detail = %+v", te)
	}

	if err := a.AdmitInstall(); err != nil {
		t.Fatalf("burst install: %v", err)
	}
	if err := a.AdmitInstall(); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("drained AdmitInstall err = %v", err)
	}

	// Unlimited sibling is unaffected.
	b, err := m.Create("globex")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := b.Do("op", func() error { return nil }); err != nil {
			t.Fatalf("sibling call %d throttled: %v", i, err)
		}
	}
	// Do surfaces fn's own error untouched.
	want := errors.New("app failed")
	if err := b.Do("op", func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("Do err = %v, want fn's error", err)
	}
}

// TestDoReportsPanic: a panicking call returns ErrCallPanicked carrying
// the panic value, whether it ran at once or was queued, and its slot
// still passes to the next caller.
func TestDoReportsPanic(t *testing.T) {
	m := newTestManager(t, Config{Shards: 1, ShardWorkers: 1})
	a, err := m.Create("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Do("op", func() error { panic("boom") }); !errors.Is(err, ErrCallPanicked) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking Do err = %v, want ErrCallPanicked: boom", err)
	}

	// The plug panics with a call queued behind it, and that call panics
	// in turn once the slot reaches it.
	gate := make(chan struct{})
	running := make(chan struct{})
	plug := make(chan error, 1)
	go func() { plug <- a.Do("op", func() error { close(running); <-gate; panic("plug") }) }()
	<-running
	queued := make(chan error, 1)
	go func() { queued <- a.Do("op", func() error { panic("queued") }) }()
	waitUntil(t, func() bool { return m.pool.Depth(0) == 1 })
	close(gate)
	for name, ch := range map[string]chan error{"plug": plug, "queued": queued} {
		if err := <-ch; !errors.Is(err, ErrCallPanicked) || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s Do err = %v, want ErrCallPanicked: %s", name, err, name)
		}
	}
	if err := a.Do("op", func() error { return nil }); err != nil {
		t.Fatalf("Do after panics err = %v", err)
	}
	if st := m.pool.ShardStats()[0]; st.Enqueued != 4 || st.Completed != 4 || st.Depth != 0 {
		t.Fatalf("shard after panics = %+v, want 4 calls in and out, none queued", st)
	}
}

// TestTenantDoAllocs pins Tenant.Do of a static no-op on an idle shard
// at zero allocations: admission, dispatch and metrics all run in place.
func TestTenantDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := newTestManager(t, Config{})
	a, err := m.Create("acme")
	if err != nil {
		t.Fatal(err)
	}
	noop := func() error { return nil }
	if n := testing.AllocsPerRun(1000, func() { _ = a.Do("op", noop) }); n != 0 {
		t.Fatalf("Tenant.Do allocates %v times per call, want 0", n)
	}
}

// BenchmarkTenantDo times Tenant.Do of a no-op: alone on an idle shard,
// and with two tenants sharing one single-slot shard, so calls queue
// and the slot passes from caller to caller.
func BenchmarkTenantDo(b *testing.B) {
	noop := func() error { return nil }
	newTenants := func(b *testing.B, cfg Config, ids ...string) []*Tenant {
		cfg.Registry, cfg.SweepInterval = obs.NewRegistry(), -1
		m, err := NewManager(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(m.Close)
		var out []*Tenant
		for _, id := range ids {
			t, err := m.Create(id)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, t)
		}
		return out
	}
	b.Run("idle", func(b *testing.B) {
		a := newTenants(b, Config{}, "acme")[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Do("op", noop); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handoff", func(b *testing.B) {
		tenants := newTenants(b, Config{Shards: 1, ShardWorkers: 1}, "acme", "globex")
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for _, tn := range tenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N/len(tenants); i++ {
					if err := tn.Do("op", noop); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// recordingRuntime captures namespaced calls crossing into the shared
// runtime.
type recordingRuntime struct {
	mu      sync.Mutex
	perms   map[string]*core.Set
	budgets map[string]core.Budget
}

func (r *recordingRuntime) SetPermissions(app string, set *core.Set) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.perms == nil {
		r.perms = map[string]*core.Set{}
	}
	r.perms[app] = set
}

func (r *recordingRuntime) AppHealth(app string) (isolation.Health, bool) {
	return isolation.Running, true
}

func (r *recordingRuntime) SetBudget(app string, b core.Budget) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budgets == nil {
		r.budgets = map[string]core.Budget{}
	}
	r.budgets[app] = b
}

func (r *recordingRuntime) SetProvenance(string, []string) {}

func TestScopedRuntimeNamespacing(t *testing.T) {
	rec := &recordingRuntime{}
	rt := ScopedRuntime(rec, "acme")
	rt.SetPermissions("sensor", core.NewSet())
	rec.mu.Lock()
	_, scoped := rec.perms["acme/sensor"]
	_, bare := rec.perms["sensor"]
	rec.mu.Unlock()
	if !scoped || bare {
		t.Fatalf("SetPermissions namespacing: scoped=%v bare=%v", scoped, bare)
	}
	if _, ok := rt.AppHealth("sensor"); !ok {
		t.Fatal("AppHealth did not pass through")
	}
	// Budget passthrough when the underlying runtime accounts budgets.
	rt.SetBudget("sensor", core.Budget{CPUMillisPerSec: 5})
	rec.mu.Lock()
	b, ok := rec.budgets["acme/sensor"]
	rec.mu.Unlock()
	if !ok || b.CPUMillisPerSec != 5 {
		t.Fatalf("SetBudget namespacing: %v %v", b, ok)
	}
}
