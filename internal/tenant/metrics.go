package tenant

import (
	"strconv"

	"sdnshield/internal/obs"
)

// Per-manager metric families. The tenant label rides through a
// cardinality guard (obs.LabelGuard): the first metricTenants
// distinct tenants get their own series, the rest fold into
// tenant="_other" — so a tenant-ID flood cannot grow the registry
// without bound. Each tenant's label value is resolved once at
// construction, not per call.
type metrics struct {
	reg   *obs.Registry
	guard *obs.LabelGuard

	resident   *obs.Gauge
	evictions  *obs.Counter
	hydrations *obs.Counter
}

// metricTenants caps distinct tenant label values in metrics.
const metricTenants = 256

func newMetrics(reg *obs.Registry, pool *ShardPool) *metrics {
	m := &metrics{
		reg:   reg,
		guard: obs.NewLabelGuard(metricTenants),
		resident: reg.Gauge("sdnshield_tenant_resident",
			"Tenants currently hydrated in memory."),
		evictions: reg.Counter("sdnshield_tenant_evictions_total",
			"Tenants evicted (idle sweep, LRU pressure, or explicit)."),
		hydrations: reg.Counter("sdnshield_tenant_hydrations_total",
			"Tenants hydrated from the on-disk store."),
	}
	for i := 0; i < pool.Shards(); i++ {
		shard := i
		m.reg.GaugeFunc("sdnshield_tenant_shard_depth",
			"Queued tenant calls per shard.",
			func() float64 { return float64(pool.Depth(shard)) },
			"shard", strconv.Itoa(shard))
	}
	m.reg.GaugeFunc("sdnshield_tenant_shard_imbalance",
		"Shard load imbalance over cumulative arrivals: max/mean - 1 (0 is even).",
		pool.Imbalance)
	return m
}

// tenantMetrics is one tenant's pre-resolved series.
type tenantMetrics struct {
	label             string // guarded label value
	calls             *obs.Counter
	callSeconds       *obs.Histogram
	throttledCalls    *obs.Counter
	throttledInstalls *obs.Counter
}

func (m *metrics) forTenant(id string) *tenantMetrics {
	label := m.guard.Value(id)
	return &tenantMetrics{
		label: label,
		calls: m.reg.Counter("sdnshield_tenant_calls_total",
			"Mediated calls admitted per tenant.", "tenant", label),
		callSeconds: m.reg.Histogram("sdnshield_tenant_call_seconds",
			"Mediated-call latency per tenant.", "tenant", label),
		throttledCalls: m.reg.Counter("sdnshield_tenant_throttled_total",
			"Admission refusals per tenant and path.", "tenant", label, "path", "call"),
		throttledInstalls: m.reg.Counter("sdnshield_tenant_throttled_total",
			"Admission refusals per tenant and path.", "tenant", label, "path", "install"),
	}
}
