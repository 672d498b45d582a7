package bench

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/prof"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/tenant"
)

// TelemetryFlags is the telemetry flag block the CLIs share: where to
// serve the introspection endpoint, which sinks to attach, and the tenant
// to stamp on the run's audit events.
type TelemetryFlags struct {
	addr, auditFile, traceFile, bundleDir, profDir *string
	slo                                            *bool

	// Bound is the address the telemetry endpoint listens on once Start
	// has returned ("" when -telemetry-addr was not given).
	Bound string
}

// RegisterTelemetryFlags defines the shared telemetry flags on fs.
// -tenant takes effect as it is parsed, so that everything a CLI does
// after fs.Parse — loading a market store included — is already
// attributed; the rest take effect in Start.
func RegisterTelemetryFlags(fs *flag.FlagSet) *TelemetryFlags {
	fs.Func("tenant", "stamp all audit events of this run with this tenant `id`, so a shared journal sink can be filtered per tenant (sdnshieldc's multi-tenant serve mode derives the tenant per request instead)",
		func(id string) error {
			if id == "" {
				return nil
			}
			if _, err := tenant.ParseID(id); err != nil {
				return err
			}
			audit.SetDefaultTenant(id)
			return nil
		})
	return &TelemetryFlags{
		addr:      fs.String("telemetry-addr", "", "serve the telemetry endpoint (/metrics, /health, /audit, /traces, pprof) on this address, e.g. 127.0.0.1:9090"),
		auditFile: fs.String("audit-file", "", "append audit events as JSONL to this file (rotated at 64 MiB)"),
		traceFile: fs.String("trace-file", "", "append finished trace spans as JSONL to this file (rotated at 64 MiB)"),
		slo:       fs.Bool("slo", false, "evaluate the built-in SLOs (install latency, queue wait, mediated calls, cache hits, dead letters) and serve them at /slo"),
		bundleDir: fs.String("bundle-dir", "", "write diagnostic bundles (anomaly/quota/quarantine captures) to this directory as <id>.json"),
		profDir:   fs.String("prof-dir", "", "run the continuous profiler: delta CPU/heap/mutex/block pprof captures land here in a bounded ring, surfaced at /prof and inside diagnostic bundles"),
	}
}

// Start brings up what the parsed flags ask for — endpoint, audit sink,
// trace sink, SLO engine, bundle directory, profiler, in that order — and
// unwinds whatever already started if a later one fails. The returned
// stop drains the job queues (in-flight installs finish and the WAL is
// fsynced before the audit trail is sealed) and then stops everything in
// reverse order; it also runs on SIGINT/SIGTERM, so an interrupted run
// loses no events.
func (f *TelemetryFlags) Start() (stop func(), err error) {
	stopTelemetry, bound, err := StartTelemetry(*f.addr)
	if err != nil {
		return nil, err
	}
	if f.Bound = bound; bound != "" {
		fmt.Fprintf(os.Stderr, "telemetry endpoint on http://%s/\n", bound)
	}
	stops := []func(){stopTelemetry} // newest first
	for _, start := range []func() (func(), error){
		func() (func(), error) { return StartAuditSink(*f.auditFile) },
		func() (func(), error) { return StartTraceSink(*f.traceFile) },
		func() (func(), error) { return StartSLO(*f.slo), nil },
		func() (func(), error) { return StartBundleDir(*f.bundleDir) },
		func() (func(), error) { return StartProfiler(*f.profDir) },
	} {
		s, err := start()
		if err != nil {
			for _, s := range stops {
				s()
			}
			return nil, err
		}
		stops = append([]func(){s}, stops...)
	}
	return OnShutdown(append([]func(){jobs.DrainAll}, stops...)...), nil
}

// StartTelemetry serves the obs introspection endpoint on addr ("" means
// off). It returns a stop function (never nil) and the bound address.
func StartTelemetry(addr string) (stop func(), bound string, err error) {
	if addr == "" {
		return func() {}, "", nil
	}
	srv, err := obs.Serve(addr, nil)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry endpoint: %w", err)
	}
	return func() { _ = srv.Close() }, srv.Addr(), nil
}

// StartAuditSink attaches a rotating JSONL file sink to the default audit
// journal ("" means off). The returned stop function (never nil) flushes
// pending events, detaches the sink and closes the file.
func StartAuditSink(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	sink, err := obs.NewFileSink[audit.Event](path, 0)
	if err != nil {
		return nil, fmt.Errorf("audit sink: %w", err)
	}
	j := audit.Default()
	j.AttachSink(sink)
	return func() {
		j.Flush()
		j.DetachSink()
		_ = sink.Close()
	}, nil
}

// StartBundleDir points the default diagnostic bundler at dir ("" means
// off): every anomaly, quota-breach, quarantine or manual capture is
// written there as <id>.json. The returned stop function (never nil)
// detaches the directory so later captures stay in memory only.
func StartBundleDir(dir string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := recorder.SetBundleDir(dir); err != nil {
		return nil, err
	}
	return func() { _ = recorder.SetBundleDir("") }, nil
}

// StartTraceSink attaches a rotating JSONL file sink to the default span
// collector ("" means off), so every finished span lands on disk
// alongside the audit journal. The returned stop function (never nil)
// detaches the sink and closes the file.
func StartTraceSink(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	sink, err := obs.NewFileSink[span.Record](path, 0)
	if err != nil {
		return nil, fmt.Errorf("trace sink: %w", err)
	}
	c := span.DefaultCollector()
	c.SetSink(sink)
	return func() {
		c.SetSink(nil)
		_ = sink.Close()
	}, nil
}

// StartProfiler runs the continuous profiler over dir ("" means off):
// periodic + diagnostic-trigger delta pprof captures land in a bounded
// on-disk ring surfaced at /prof and in every /debug/bundle. The
// returned stop function (never nil) halts the profiler.
func StartProfiler(dir string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	p, err := prof.Start(prof.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	return p.Stop, nil
}

// StartSLO arms the default SLO engine over the five core objectives —
// install latency, job queue wait, mediated-call latency, verdict-cache
// hit ratio and job dead-letter rate — and starts its evaluation loop.
// A breach (both burn windows past threshold) emits a KindSLO audit
// event and captures a diagnostic bundle; recovery emits the matching
// audit event. The returned stop function (never nil) halts the loop
// and clears /slo.
func StartSLO(enable bool) (stop func()) {
	if !enable {
		return func() {}
	}
	reg := obs.Default()
	eng := obs.NewEngine(obs.EngineConfig{},
		obs.LatencyObjective("market_install_p99",
			"99% of install/upgrade pipelines finish within 250ms.",
			reg, "sdnshield_market_install_seconds", 250*time.Millisecond, 0.99),
		obs.LatencyObjective("job_queue_wait_p95",
			"95% of jobs start executing within 500ms of enqueue.",
			reg, "sdnshield_jobs_wait_seconds", 500*time.Millisecond, 0.95),
		obs.LatencyObjective("mediated_call_p99",
			"99% of mediated API calls finish within 1ms.",
			reg, "sdnshield_mediated_call_seconds", time.Millisecond, 0.99),
		obs.Objective{
			Name:        "verdict_cache_hit_ratio",
			Description: "At least 80% of reconciliations are served from the verdict cache.",
			Target:      0.80,
			Good:        func() float64 { return reg.TotalOf("sdnshield_market_verdict_cache_hits_total") },
			Total: func() float64 {
				return reg.TotalOf("sdnshield_market_verdict_cache_hits_total") +
					reg.TotalOf("sdnshield_market_verdict_cache_misses_total")
			},
		},
		obs.Objective{
			Name:        "job_dead_letter_rate",
			Description: "At least 99% of settled jobs complete instead of dead-lettering.",
			Target:      0.99,
			Good:        func() float64 { return reg.TotalOf("sdnshield_jobs_completed_total") },
			Total: func() float64 {
				return reg.TotalOf("sdnshield_jobs_completed_total") +
					reg.TotalOf("sdnshield_jobs_dead_total")
			},
		},
	)
	WireSLOBreach(eng)
	obs.SetDefaultSLO(eng)
	eng.Start()
	return func() {
		eng.Stop()
		if obs.DefaultSLO() == eng {
			obs.SetDefaultSLO(nil)
		}
	}
}

// WireSLOBreach installs the standard breach/recover callbacks on an SLO
// engine: a breach emits a KindSLO audit event and captures a diagnostic
// bundle (which in turn joins a profiler capture when one is running);
// recovery emits the matching audit event. StartSLO uses it for the
// default engine; tests wire purpose-built engines through the same
// path.
func WireSLOBreach(eng *obs.Engine) {
	eng.SetOnBreach(func(st obs.ObjectiveStatus) {
		corr := audit.NextCorr()
		detail := fmt.Sprintf("%s: fast burn %.2f, slow burn %.2f, compliance %.4f against target %.4f",
			st.Name, st.FastBurn, st.SlowBurn, st.Compliance, st.Target)
		if audit.On() {
			audit.Emit(audit.Event{
				Kind: audit.KindSLO, Verdict: audit.VerdictSLOBreach,
				Op: st.Name, Corr: corr, Detail: detail,
			})
		}
		recorder.Capture(recorder.TriggerSLO, "", corr, detail)
	})
	eng.SetOnRecover(func(st obs.ObjectiveStatus) {
		if audit.On() {
			audit.Emit(audit.Event{
				Kind: audit.KindSLO, Verdict: audit.VerdictSLORecover,
				Op: st.Name, Corr: audit.NextCorr(),
				Detail: fmt.Sprintf("%s: error budget out of fast burn (slow burn %.2f)", st.Name, st.SlowBurn),
			})
		}
	})
}

// TelemetrySummary renders the one-line metrics digest the CLIs print on
// exit, pulled from the default registry and the default audit journal.
func TelemetrySummary() string {
	reg := obs.Default()
	j := audit.Default()
	return fmt.Sprintf(
		"telemetry: checks=%.0f denied=%.0f mediated_calls=%.0f kernel_requests=%.0f retries=%.0f faults=%.0f app_panics=%.0f tx_rollbacks=%.0f audit_events=%d audit_drops=%d",
		reg.TotalOf("sdnshield_permengine_checks_total"),
		reg.TotalOfLabeled("sdnshield_permengine_checks_total", "decision", "deny"),
		reg.TotalOf("sdnshield_mediated_call_seconds"),
		reg.TotalOf("sdnshield_kernel_request_seconds"),
		reg.TotalOf("sdnshield_kernel_request_retries_total"),
		reg.TotalOf("sdnshield_faults_injected_total"),
		reg.TotalOf("sdnshield_app_panics_total"),
		reg.TotalOf("sdnshield_permengine_tx_rollbacks_total"),
		j.Emitted(),
		j.Drops(),
	)
}
