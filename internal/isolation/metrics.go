package isolation

import "sdnshield/internal/obs"

// Isolation-layer instrumentation: the KSD boundary (the inter-goroutine
// hop whose cost the paper's end-to-end figures measure) and per-app
// lifecycle counters.
var (
	mKSDHopSeconds = obs.Default().Histogram("sdnshield_ksd_hop_seconds",
		"Time a mediated call waits between enqueue and pickup by a Kernel Service Deputy.")
	mKSDQueueDepth = obs.Default().Gauge("sdnshield_ksd_queue_depth",
		"Mediated calls waiting in the KSD request channel (sampled at enqueue).")
	mQuarantinedCalls = obs.Default().Counter("sdnshield_ksd_quarantined_calls_total",
		"Mediated calls rejected because the app is quarantined.")

	// mediatedSampler picks the 1-in-N mediated calls whose latency is
	// measured; every traceOneIn-th of those also leaves its spans.
	mediatedSampler obs.Sampler
)

// traceOneIn cuts the traced subset from the measured calls: one call in
// 128 at the default latency sampling of 8 — cheap enough to leave on,
// frequent enough that a second of traffic populates /traces.
const traceOneIn = 16

// appCounters is the set of per-container lifecycle counters, created
// once per app name at Launch and cached on the container.
type appCounters struct {
	panics      *obs.Counter
	restarts    *obs.Counter
	quarantines *obs.Counter
	dropped     *obs.Counter
}

// registerAppGauges publishes a launched container's resource
// accounting as pull-at-scrape gauges. Relaunching a name rebinds the
// series to the new container.
func registerAppGauges(c *Container) {
	reg := obs.Default()
	reg.GaugeFunc("sdnshield_app_cpu_seconds_total",
		"Cumulative mediated-call execution time charged to the app, by app.",
		func() float64 { return float64(c.res.cpuNanos.Load()) / 1e9 }, "app", c.name)
	reg.GaugeFunc("sdnshield_app_ksd_wait_seconds_total",
		"Cumulative KSD queue residency of the app's mediated calls, by app.",
		func() float64 { return float64(c.res.waitNanos.Load()) / 1e9 }, "app", c.name)
	reg.GaugeFunc("sdnshield_app_alloc_bytes_estimate",
		"Sampled estimate of heap bytes allocated during the app's mediated calls, by app.",
		func() float64 { return float64(c.res.allocBytes.Load()) }, "app", c.name)
	reg.GaugeFunc("sdnshield_app_goroutines",
		"Container-owned goroutines plus mediated calls in flight, by app.",
		func() float64 { return float64(c.res.goroutines.Load()) }, "app", c.name)
	reg.GaugeFunc("sdnshield_app_mediated_calls_total",
		"Mediated API calls issued by the app, by app.",
		func() float64 { return float64(c.res.calls.Load()) }, "app", c.name)
	reg.GaugeFunc("sdnshield_app_quota_breaches_total",
		"Soft resource-quota breaches detected by the sweep, by app.",
		func() float64 { return float64(c.res.breaches.Load()) }, "app", c.name)
}

func newAppCounters(app string) appCounters {
	reg := obs.Default()
	return appCounters{
		panics: reg.Counter("sdnshield_app_panics_total",
			"Panics absorbed from app init and event handlers, by app.", "app", app),
		restarts: reg.Counter("sdnshield_app_restarts_total",
			"Supervisor re-initializations, by app.", "app", app),
		quarantines: reg.Counter("sdnshield_app_quarantines_total",
			"Apps quarantined after exceeding the panic budget, by app.", "app", app),
		dropped: reg.Counter("sdnshield_app_dropped_events_total",
			"Events dropped instead of delivered (queue overflow or unhealthy container), by app.", "app", app),
	}
}
