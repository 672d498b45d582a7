package isolation

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
)

// Per-app resource accounting (§VI-A: deputies do work *on behalf of*
// apps, so the shield — not the app — is where consumption is visible).
// Every container carries a resourceState fed from the KSD hot path:
// execution time and deputy-slot wait come from the app's measured calls
// (1 in obs.LatencySampling of its own calls, scaled back to full rate),
// allocation is estimated by sampling, and the goroutine gauge counts
// container-owned workers plus calls in flight. Budgets declared in
// market manifests (BUDGET statements) become soft quotas: a periodic
// sweep compares per-second rates against them, and a breach emits an
// audit event and a diagnostic bundle — and can, configurably, escalate
// to quarantine.

// allocOneIn is the 1-in-N side cut (obs.Sample.OneIn) of an app's
// mediated calls that bracket their execution with process-allocation
// reads; each sampled delta is scaled by N. Per-app attribution is an
// estimate — concurrent goroutines' allocations land in whichever sample
// is open — but the sustained rate converges on the app's share.
const allocOneIn = 64

// resourceState is one container's live consumption and the state of its
// quota sweep; the budget it is swept against is the app's grant's.
type resourceState struct {
	cpuNanos   atomic.Int64 // cumulative mediated-call execution time
	waitNanos  atomic.Int64 // cumulative KSD slot wait
	allocBytes atomic.Int64 // sampled allocation estimate
	// calls counts the app's mediated calls and numbers each one for its
	// sampling decision.
	calls      atomic.Uint64
	goroutines atomic.Int64 // container workers + calls in flight
	breaches   atomic.Uint64

	mu        sync.Mutex
	lastSweep time.Time
	lastCPU   int64
	lastAlloc int64
	lastDrops uint64
	streak    int // consecutive sweeps with at least one breach
}

// account charges one measured mediated call. every is the latency
// sampling period the call was numbered under, which scales the sample
// back to full rate (1 when every call is measured).
func (r *resourceState) account(exec, wait time.Duration, every uint64) {
	r.cpuNanos.Add(int64(exec) * int64(every))
	r.waitNanos.Add(int64(wait) * int64(every))
}

// ResourceUsage is one app's consumption as reported by
// Shield.UsageSnapshot, HealthSnapshot and the /apps endpoint.
type ResourceUsage struct {
	App           string  `json:"app"`
	MediatedCalls uint64  `json:"mediated_calls"`
	CPUMillis     float64 `json:"cpu_ms"`
	KSDWaitMillis float64 `json:"ksd_wait_ms"`
	AllocKB       int64   `json:"alloc_kb_estimate"`
	Goroutines    int64   `json:"goroutines"`
	DroppedEvents uint64  `json:"dropped_events"`
	QuotaBreaches uint64  `json:"quota_breaches"`
	// Budget is the app's soft quota, omitted when none is set.
	Budget *core.Budget `json:"budget,omitempty"`
}

// usage snapshots the container's accounting.
func (c *Container) usage() ResourceUsage {
	u := ResourceUsage{
		App:           c.name,
		MediatedCalls: c.res.calls.Load(),
		CPUMillis:     float64(c.res.cpuNanos.Load()) / 1e6,
		KSDWaitMillis: float64(c.res.waitNanos.Load()) / 1e6,
		AllocKB:       c.res.allocBytes.Load() / 1024,
		Goroutines:    c.res.goroutines.Load(),
		DroppedEvents: c.dropped.Load(),
		QuotaBreaches: c.res.breaches.Load(),
	}
	if b := c.shield.engine.Budget(c.name); !b.IsZero() {
		u.Budget = &b
	}
	return u
}

// UsageSnapshot reports every launched app's resource usage, keyed by
// app name.
func (s *Shield) UsageSnapshot() map[string]ResourceUsage {
	containers := s.launched()
	out := make(map[string]ResourceUsage, len(containers))
	for _, c := range containers {
		out[c.name] = c.usage()
	}
	return out
}

// QuotaBreach is one budget dimension exceeded during a sweep.
type QuotaBreach struct {
	App string `json:"app"`
	// Dimension is the manifest budget key (e.g. "CPU_MS_PER_SEC").
	Dimension string `json:"dimension"`
	Observed  int64  `json:"observed"`
	Limit     int64  `json:"limit"`
}

// sweep compares the rates since the previous sweep against budget b.
// The first sweep only records baselines. It returns the breached
// dimensions and the updated consecutive-breach streak.
func (r *resourceState) sweep(now time.Time, drops uint64, b core.Budget) ([]QuotaBreach, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cpu, alloc := r.cpuNanos.Load(), r.allocBytes.Load()
	if r.lastSweep.IsZero() {
		r.lastSweep, r.lastCPU, r.lastAlloc, r.lastDrops = now, cpu, alloc, drops
		return nil, 0
	}
	secs := now.Sub(r.lastSweep).Seconds()
	if secs <= 0 {
		return nil, r.streak
	}
	var breaches []QuotaBreach
	check := func(dim string, observed, limit int64) {
		if limit > 0 && observed > limit {
			breaches = append(breaches, QuotaBreach{Dimension: dim, Observed: observed, Limit: limit})
		}
	}
	check("CPU_MS_PER_SEC", int64(float64(cpu-r.lastCPU)/1e6/secs), b.CPUMillisPerSec)
	check("ALLOC_KB_PER_SEC", int64(float64(alloc-r.lastAlloc)/1024/secs), b.AllocKBPerSec)
	check("MAX_GOROUTINES", r.goroutines.Load(), b.MaxGoroutines)
	check("MAX_DROPS_PER_SEC", int64(float64(drops-r.lastDrops)/secs), b.MaxDropsPerSec)
	r.lastSweep, r.lastCPU, r.lastAlloc, r.lastDrops = now, cpu, alloc, drops
	if len(breaches) > 0 {
		r.streak++
	} else {
		r.streak = 0
	}
	return breaches, r.streak
}

// CheckQuotas runs one quota sweep at the given instant and returns
// every breach. The background loop calls it once per
// QuotaCheckInterval; tests call it directly with controlled clocks.
// Each breach emits a resource audit event; the first breach per app
// also captures a diagnostic bundle (subject to the bundler's cooldown
// and its automatic-capture gate). An app breaching on
// QuotaEscalateAfter consecutive sweeps is quarantined.
func (s *Shield) CheckQuotas(now time.Time) []QuotaBreach {
	containers := s.launched()
	var all []QuotaBreach
	for _, c := range containers {
		b := s.engine.Budget(c.name)
		if c.Health() != Running || b.IsZero() {
			continue
		}
		breaches, streak := c.res.sweep(now, c.dropped.Load(), b)
		if len(breaches) == 0 {
			continue
		}
		for i := range breaches {
			br := &breaches[i]
			br.App = c.name
			c.res.breaches.Add(1)
			if audit.On() {
				audit.Emit(audit.Event{
					Kind: audit.KindResource, Verdict: audit.VerdictBreach,
					App: c.name, Op: br.Dimension,
					Detail: fmt.Sprintf("observed %d exceeds budget %d", br.Observed, br.Limit),
				})
			}
		}
		// Drain the journal so the bundle's audit tail includes the
		// breach events just emitted (the sweep is not a hot path).
		if audit.On() {
			audit.Default().Flush()
		}
		recorder.Capture(recorder.TriggerQuota, c.name, 0,
			fmt.Sprintf("%s: observed %d exceeds budget %d (streak %d)",
				breaches[0].Dimension, breaches[0].Observed, breaches[0].Limit, streak))
		if s.cfg.QuotaEscalateAfter > 0 && streak >= s.cfg.QuotaEscalateAfter {
			c.quarantineForBudget(fmt.Sprintf("budget breached on %d consecutive sweeps (%s %d > %d)",
				streak, breaches[0].Dimension, breaches[0].Observed, breaches[0].Limit))
		}
		all = append(all, breaches...)
	}
	return all
}

// quarantineForBudget permanently unhooks an app that kept breaching
// its quota — the resource analogue of the panic budget.
func (c *Container) quarantineForBudget(reason string) {
	if c.health.CompareAndSwap(int32(Running), int32(Quarantined)) {
		c.quarantine(reason)
	}
}

// quotaLoop drives the periodic sweep until Stop.
func (s *Shield) quotaLoop(interval time.Duration) {
	defer s.quotaWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.quotaStop:
			return
		case <-tick.C:
			s.CheckQuotas(time.Now())
		}
	}
}

// heapAllocBytes reads the process's cumulative heap allocation. Used
// in before/after pairs around sampled mediated calls; only the delta
// matters.
func heapAllocBytes() int64 {
	var s [1]metrics.Sample
	s[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}
