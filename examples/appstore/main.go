// Appstore models the SDN app-market workflow of §III end to end on the
// internal/market subsystem: vendors sign releases with Ed25519 keys,
// the store's provenance gate rejects tampering and unknown vendors, the
// reconciliation engine (behind the verdict cache) produces approved /
// repaired / rejected verdicts, repaired manifests wait for
// administrator sign-off, and a live upgrade runs under a probation
// window that auto-rolls back when the new release misbehaves. The
// finale attaches the async job spine (installs ride a durable queue
// and answer with a pollable job ID) and stands up a replica plus a
// federated downstream store, each re-verifying every release locally.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/jobs"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/tenant"
)

// sitePolicy is the administrator's template: a boundary for third-party
// apps plus the attack-pattern mutual exclusions.
const sitePolicy = `
# Stub bindings for this deployment.
LET LocalTopo = {SWITCH 1,2,3,4}
LET AdminRange = {IP_DST 10.1.0.0 MASK 255.255.0.0}

# No app may both talk to the outside world and shape traffic.
ASSERT EITHER { PERM network_access } OR { PERM send_packet_out }
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
`

// submissions are the app releases under review with their shipped
// manifests.
var submissions = []struct {
	name     string
	vendor   string
	version  string
	manifest string
}{
	{
		name: "l2switch", vendor: "opendaylight", version: "1.0.0",
		manifest: `
PERM pkt_in_event
PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS
PERM send_pkt_out LIMITING FROM_PKT_IN
`,
	},
	{
		name: "tenant-monitor", vendor: "acme-netwatch", version: "1.0.0",
		manifest: `
PERM visible_topology LIMITING LocalTopo
PERM read_statistics
PERM network_access LIMITING AdminRange
PERM insert_flow
`,
	},
	{
		name: "load-balancer", vendor: "flowbalance", version: "1.0.0",
		manifest: `
PERM pkt_in_event
PERM insert_flow LIMITING WILDCARD IP_DST 255.255.255.0
PERM send_pkt_out LIMITING FROM_PKT_IN
PERM read_statistics LIMITING PORT_LEVEL
`,
	},
}

// demoRuntime stands in for a live isolation.Shield: it records the
// permission sets the market activates and serves scripted app health so
// the probation monitor has something to watch.
type demoRuntime struct {
	mu     sync.Mutex
	perms  map[string]*core.Set
	health map[string]isolation.Health
}

func newDemoRuntime() *demoRuntime {
	return &demoRuntime{
		perms:  make(map[string]*core.Set),
		health: make(map[string]isolation.Health),
	}
}

func (d *demoRuntime) SetPermissions(app string, set *core.Set) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.perms[app] = set
}

// The demo's apps declare no BUDGET and it prints no /explain, so budgets
// and provenance are not recorded.
func (d *demoRuntime) SetBudget(string, core.Budget)  {}
func (d *demoRuntime) SetProvenance(string, []string) {}

func (d *demoRuntime) AppHealth(app string) (isolation.Health, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.health[app]
	return h, ok
}

func (d *demoRuntime) setHealth(app string, h isolation.Health) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.health[app] = h
}

func main() {
	// --- The store: trusted vendors and their signing keys.
	reg := market.NewRegistry()
	keys := make(map[string]func(market.Release) *market.SignedRelease)
	for _, vendor := range []string{"opendaylight", "acme-netwatch", "flowbalance"} {
		pub, priv, err := market.GenerateKey()
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.TrustVendor(vendor, pub); err != nil {
			log.Fatal(err)
		}
		p := priv
		keys[vendor] = func(r market.Release) *market.SignedRelease { return market.Sign(r, p) }
	}

	rt := newDemoRuntime()
	m, err := market.New(reg, rt, market.Config{
		PolicySrc:     sitePolicy,
		Probation:     300 * time.Millisecond,
		ProbationPoll: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// --- Provenance gate: tampered and unsigned submissions never reach
	// reconciliation.
	fmt.Println("==== provenance gate ====")
	tampered := keys["flowbalance"](market.Release{
		Name: "load-balancer", Vendor: "flowbalance", Version: "0.9.0",
		Manifest: "PERM read_statistics",
	})
	tampered.Manifest = "PERM read_statistics\nPERM process_runtime" // supply-chain rewrite
	if _, err := reg.Submit(tampered); err != nil {
		fmt.Println("  tampered package:", err)
	}
	_, roguePriv, _ := market.GenerateKey()
	rogue := market.Sign(market.Release{
		Name: "telemetry-exporter", Vendor: "unknown", Version: "1.0.0",
		Manifest: "PERM read_payload\nPERM network_access",
	}, roguePriv)
	if _, err := reg.Submit(rogue); err != nil {
		fmt.Println("  unknown vendor:  ", err)
	}
	fmt.Println()

	// --- Install pipeline: submit, reconcile (verdict cache in front of
	// Algorithm 1), activate or park for sign-off.
	for _, sub := range submissions {
		fmt.Printf("==== %s@%s (%s) ====\n", sub.name, sub.version, sub.vendor)
		sr := keys[sub.vendor](market.Release{
			Name: sub.name, Vendor: sub.vendor, Version: sub.version, Manifest: sub.manifest,
		})
		digest, err := reg.Submit(sr)
		if err != nil {
			fmt.Println("  REJECTED at the gate:", err)
			continue
		}
		res, err := m.Install(digest)
		if err != nil && res == nil {
			fmt.Println("  REJECTED:", err)
			continue
		}
		fmt.Printf("  verdict: %s (cache hit: %v)\n", res.Verdict, res.CacheHit)
		for _, v := range res.Violations {
			fmt.Println("   ", v)
		}
		if res.Status == market.StatusPending {
			fmt.Println("  administrator signs off the repaired manifest…")
			if res, err = m.Approve(sub.name); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  status: %s; deployable permissions:\n", res.Status)
		for _, line := range strings.Split(res.Effective, "\n") {
			fmt.Println("   ", line)
		}
		fmt.Println()
	}

	// --- Verdict cache: resubmitting the same package skips Algorithm 1.
	fmt.Println("==== verdict cache ====")
	again := keys["opendaylight"](market.Release{
		Name: "l2switch", Vendor: "opendaylight", Version: "1.0.0",
		Manifest: submissions[0].manifest,
	})
	d, err := reg.Submit(again) // idempotent: same content address
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Evaluate(d)
	if err != nil {
		log.Fatal(err)
	}
	hits, misses := m.Cache().Stats()
	fmt.Printf("  re-evaluating l2switch@1.0.0: cache hit: %v (process counters: %d hits, %d misses)\n\n",
		res.CacheHit, hits, misses)

	// --- Live upgrade with probation and automatic rollback.
	fmt.Println("==== upgrade probation ====")
	rt.setHealth("l2switch", isolation.Running)
	v2 := keys["opendaylight"](market.Release{
		Name: "l2switch", Vendor: "opendaylight", Version: "2.0.0",
		Manifest: "PERM pkt_in_event\nPERM insert_flow LIMITING ACTION FORWARD\nPERM send_pkt_out LIMITING FROM_PKT_IN",
	})
	d2, err := reg.Submit(v2)
	if err != nil {
		log.Fatal(err)
	}
	diff, _, err := m.DiffLatest("l2switch")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(indent(diff, "  "))
	res, err = m.Upgrade(d2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  upgraded to 2.0.0: status %s\n", res.Status)
	fmt.Println("  the new release starts crash-looping…")
	rt.setHealth("l2switch", isolation.Restarting)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, ok := m.Status("l2switch"); ok && s.Status == market.StatusActive && s.Version == "1.0.0" {
			fmt.Printf("  rolled back automatically: active release %s, status %s\n", s.Version, s.Status)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("probation rollback did not happen")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// --- Async job spine: installs ride a durable queue and answer with
	// a job ID instead of blocking the caller.
	fmt.Println("\n==== async job spine ====")
	jm, err := jobs.Open(jobs.Config{}) // in-memory for the demo; pass Dir for a WAL
	if err != nil {
		log.Fatal(err)
	}
	defer jm.Close()
	m.AttachJobs(jm, 2)
	auditor := keys["acme-netwatch"](market.Release{
		Name: "flow-auditor", Vendor: "acme-netwatch", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM visible_topology LIMITING LocalTopo",
	})
	corr := audit.NextCorr()
	da, err := reg.SubmitTraced(auditor, corr)
	if err != nil {
		log.Fatal(err)
	}
	root := span.Root(corr, "demo:install")
	jobID, err := m.SubmitJob(market.QueueInstall, market.JobRequest{Digest: da.String()}, corr, root.Context())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  enqueued install of flow-auditor@1.0.0 as job %d (trace /trace/%d)\n", jobID, corr)
	for {
		snap, ok := jm.Status(jobID)
		if !ok {
			log.Fatal("job vanished")
		}
		if snap.State == jobs.StateDone || snap.State == jobs.StateDead {
			fmt.Printf("  job %d: %s after %d attempt(s)\n", jobID, snap.State, snap.Attempts)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	root.End()
	if s, ok := m.Status("flow-auditor"); ok {
		fmt.Printf("  flow-auditor is %s at %s\n", s.Status, s.Version)
	}
	fmt.Printf("  trace %d retained %d spans (enqueue, queue wait, pipeline stages)\n",
		corr, len(span.DefaultCollector().Trace(corr)))

	// --- Replication and federation: a replica ships the leader's
	// release log wholesale; a federated downstream pulls by digest
	// anti-entropy but admits only vendors it provisioned itself. Both
	// re-verify every signature locally — the wire carries only claims.
	fmt.Println("\n==== replication & federation ====")
	market.MountHTTP(m)
	leader := httptest.NewServer(obs.NewHandler(obs.Default()))
	defer leader.Close()

	replica := market.NewRegistry()
	rep := market.NewSyncer(replica, market.SyncConfig{
		Upstream: leader.URL, Mode: market.SyncReplica, TrustUpstreamKeys: true,
	})
	if _, err := rep.SyncOnce(); err != nil {
		log.Fatal(err)
	}
	rs := rep.Stats()
	fmt.Printf("  replica:    admitted %d release(s), in sync: %v (root %.12s…)\n",
		rs.Admitted, replica.RootDigest() == reg.RootDigest(), replica.RootDigest())

	downstream := market.NewRegistry()
	odlKey, _ := reg.VendorKey("opendaylight")
	if err := downstream.TrustVendor("opendaylight", odlKey); err != nil {
		log.Fatal(err)
	}
	fed := market.NewSyncer(downstream, market.SyncConfig{
		Upstream: leader.URL, Mode: market.SyncFederate, // keeps its own trust anchors
	})
	if _, err := fed.SyncOnce(); err != nil {
		log.Fatal(err)
	}
	fs := fed.Stats()
	fmt.Printf("  federation: admitted %d, rejected %d (only opendaylight is trusted downstream)\n",
		fs.Admitted, fs.Rejected)

	// --- Multi-tenant hosting: one process, many isolated stores. Each
	// tenant gets its own market, registry, verdict cache and job queues
	// behind a tenant.Manager; scoped HTTP under /t/<tenant>/ shows each
	// tenant only its own world, and per-tenant admission turns the soft
	// BUDGET quotas into hard 429s at the front door. One SIGINT hook
	// (jobs.DrainAll) still drains every tenant's queues.
	fmt.Println("\n==== multi-tenant hosting ====")
	tmgr, err := tenant.NewManager(tenant.Config{PolicySrc: sitePolicy})
	if err != nil {
		log.Fatal(err)
	}
	defer tmgr.Close()
	alpha, err := tmgr.Create("alpha")
	if err != nil {
		log.Fatal(err)
	}
	bravo, err := tmgr.CreateWith("bravo", tenant.AdmissionConfig{
		CallsPerSec: 0.5, CallBurst: 2, // tiny on purpose: the demo exhausts it
	})
	if err != nil {
		log.Fatal(err)
	}
	odl, _ := reg.VendorKey("opendaylight")
	if err := alpha.Market().Registry().TrustVendor("opendaylight", odl); err != nil {
		log.Fatal(err)
	}
	srAlpha := keys["opendaylight"](market.Release{
		Name: "l2switch", Vendor: "opendaylight", Version: "1.0.0",
		Manifest: submissions[0].manifest,
	})
	dAlpha, err := alpha.Market().Registry().Submit(srAlpha)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := alpha.Market().Install(dAlpha); err != nil {
		log.Fatal(err)
	}

	tenant.MountHTTP(tmgr)
	ts := httptest.NewServer(obs.NewHandler(obs.Default()))
	defer ts.Close()
	// Scoped routes require the tenant header (production fronts this
	// with a proxy that injects it after authenticating the caller).
	for _, id := range []string{"alpha", "bravo"} {
		path := "/t/" + id + "/market/apps"
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set(tenant.HeaderTenant, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("  GET %-22s -> %d, %d bytes (bravo sees none of alpha's apps)\n",
			path, resp.StatusCode, len(body))
	}

	for i := 1; ; i++ {
		if err := bravo.Do("read_statistics", func() error { return nil }); err != nil {
			var te *tenant.ThrottleError
			if errors.As(err, &te) {
				fmt.Printf("  bravo throttled after %d calls: %v\n", i-1, te)
			}
			break
		}
	}
	if err := alpha.Do("read_statistics", func() error { return nil }); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  alpha is unaffected by its neighbour's exhaustion")
	fmt.Printf("  resident tenants: %d (evict/suspend/pin via POST /tenants)\n", tmgr.Resident())

	snaps := m.Snapshot()
	fmt.Println("\n==== final market state ====")
	for _, s := range snaps {
		status := string(s.Status)
		if status == "" {
			status = "not installed"
		}
		fmt.Printf("  %-16s %-10s %s (releases: %s)\n", s.App, s.Version, status, strings.Join(s.Releases, ", "))
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
