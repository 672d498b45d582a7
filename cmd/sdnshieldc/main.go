// Command sdnshieldc is the SDNShield permission compiler and
// reconciliation tool: it parses an app's permission manifest, verifies
// it against the administrator's security policy, and prints the
// reconciled permissions for review.
//
// Usage:
//
//	sdnshieldc -app monitor -manifest monitor.perm [-policy site.policy] [-strict]
//
// With -strict the exit code is 2 when the policy was violated (even if
// repaired), letting deployment pipelines gate on clean manifests.
//
// Market mode (-market-dir) operates on an on-disk app-market store of
// trusted vendor keys and signed release packages:
//
//	sdnshieldc -market-dir ./market -market-keygen acme
//	sdnshieldc -market-dir ./market -market-sign -app monitor \
//	    -market-vendor acme -market-version 1.2.0 -manifest monitor.perm
//	sdnshieldc -market-dir ./market -policy site.policy
//	sdnshieldc -market-dir ./market -policy site.policy -telemetry-addr 127.0.0.1:9090
//
// The last form serves the /market/* administration endpoints until
// interrupted. With -market-jobs the install/upgrade/recompute
// endpoints enqueue onto a durable job queue and answer 202 Accepted;
// poll /market/jobs/<id> for the verdict:
//
//	sdnshieldc -market-dir ./market -policy site.policy \
//	    -market-jobs ./market/jobs -market-node store-a \
//	    -telemetry-addr 127.0.0.1:9090
//
// Follower mode replicates another market's release log (re-verifying
// every signature locally before admission) into this node's store:
//
//	sdnshieldc -market-dir ./replica -policy site.policy \
//	    -market-follow http://127.0.0.1:9090 -telemetry-addr 127.0.0.1:9091
//
// With -market-sync-mode federate the follower keeps its own vendor
// trust anchors instead of importing the upstream's keys.
//
// Multi-tenant mode (-tenants-dir) hosts many isolated tenants — each
// with its own market, job queues and scoped observability — in one
// process, serving /t/<tenant>/market/... and the /tenants admin
// surface:
//
//	sdnshieldc -tenants-dir ./tenants -policy site.policy \
//	    -tenants-admin-token s3cret -telemetry-addr 127.0.0.1:9090
//	curl -X POST http://127.0.0.1:9090/tenants \
//	    -H 'Authorization: Bearer s3cret' \
//	    -d '{"op":"create","tenant":"acme"}'
//	curl -H 'X-Sdnshield-Tenant: acme' http://127.0.0.1:9090/t/acme/market/apps
//
// Scoped routes require the X-Sdnshield-Tenant header to agree with the
// path; in production a trusted front proxy authenticates the caller,
// injects that header, and strips client-supplied X-Sdnshield-Tenant
// and X-Sdnshield-Trace values before forwarding.
//
// Single-tenant runs can stamp their audit trail with -tenant <id>.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdnshield"
	"sdnshield/internal/bench"
	"sdnshield/internal/jobs"
	"sdnshield/internal/market"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/tenant"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdnshieldc:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("sdnshieldc", flag.ContinueOnError)
	appName := fs.String("app", "app", "app identity the manifest belongs to")
	manifestPath := fs.String("manifest", "", "path to the permission manifest (required outside market mode)")
	policyPath := fs.String("policy", "", "path to the security policy (optional)")
	strict := fs.Bool("strict", false, "exit with status 2 on any policy violation")
	quiet := fs.Bool("quiet", false, "print only the reconciled permissions")
	telemetry := bench.RegisterTelemetryFlags(fs)
	marketDir := fs.String("market-dir", "", "market mode: operate on this app-market directory (keys/ + releases/)")
	marketKeygen := fs.String("market-keygen", "", "market mode: generate a keypair for this vendor under the market dir, print the public key, and exit")
	marketSign := fs.Bool("market-sign", false, "market mode: package -app/-manifest as a signed release (needs -market-vendor, -market-version)")
	marketVendor := fs.String("market-vendor", "", "vendor whose key signs the release for -market-sign")
	marketVersion := fs.String("market-version", "", "semantic version (MAJOR.MINOR.PATCH) of the release for -market-sign")
	marketJobs := fs.String("market-jobs", "", "market serve mode: durable job-queue directory; install/upgrade/recompute enqueue and answer 202 (\"mem\" for a non-durable queue)")
	marketWorkers := fs.Int("market-workers", 4, "market serve mode: workers per job queue")
	marketNode := fs.String("market-node", "", "market serve mode: arm a leader lease under this node name (replication feed guard)")
	marketFollow := fs.String("market-follow", "", "market follower mode: pull releases from this upstream base URL into the market dir")
	marketSyncMode := fs.String("market-sync-mode", "replica", "follower mode: replica (ship the release log, import upstream keys) or federate (digest anti-entropy, locally provisioned keys)")
	marketSyncInterval := fs.Duration("market-sync-interval", 2*time.Second, "follower mode: upstream poll cadence")
	tenantsDir := fs.String("tenants-dir", "", "multi-tenant serve mode: host isolated tenants over this store; serves /t/<tenant>/market/..., /t/<tenant>/{audit,trace,apps,jobs} and the /tenants admin surface (pair with -telemetry-addr)")
	tenantsAdminToken := fs.String("tenants-admin-token", "", "require this bearer token on the /tenants admin API (empty leaves it open — only acceptable behind a trusted network boundary)")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *marketDir == "" && *tenantsDir == "" && *manifestPath == "" {
		fs.Usage()
		return 1, fmt.Errorf("-manifest is required")
	}
	// Key generation needs no policy, telemetry or audit plumbing.
	if *marketDir != "" && *marketKeygen != "" {
		pub, err := market.Keygen(*marketDir, *marketKeygen)
		if err != nil {
			return 1, err
		}
		fmt.Printf("vendor %s public key: %s\n", *marketKeygen, hex.EncodeToString(pub))
		fmt.Printf("private key: %s\n", filepath.Join(*marketDir, "keys", *marketKeygen+".key"))
		return 0, nil
	}

	var policySrc string
	if *policyPath != "" {
		raw, err := os.ReadFile(*policyPath)
		if err != nil {
			return 1, err
		}
		policySrc = string(raw)
	}

	// Multi-tenant mode mounts /t/<tenant>/... and /tenants before the
	// telemetry server starts so the composed handler includes the
	// routes. Each tenant gets its own market (hydrated lazily from
	// <tenants-dir>/<id>/store), job queues and scoped observability.
	var tmgr *tenant.Manager
	if *tenantsDir != "" {
		var err error
		tmgr, err = tenant.NewManager(tenant.Config{
			Dir:         *tenantsDir,
			PolicySrc:   policySrc,
			DurableJobs: *marketJobs != "" && *marketJobs != "mem",
			JobWorkers:  *marketWorkers,
			AdminToken:  *tenantsAdminToken,
		})
		if err != nil {
			return 1, fmt.Errorf("tenant manager: %w", err)
		}
		defer tmgr.Close()
		tenant.MountHTTP(tmgr)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "tenants: %d stored under %s\n", len(tmgr.Stored()), *tenantsDir)
		}
	}

	// Market mode mounts /market/* before the telemetry server starts so
	// the composed handler includes the routes.
	var mkt *market.Market
	var syncer *market.Syncer
	if *marketDir != "" && !*marketSign {
		reg := market.NewRegistry()
		loaded, problems, err := market.LoadDir(*marketDir, reg)
		if err != nil {
			return 1, err
		}
		mkt, err = market.New(reg, nil, market.Config{PolicySrc: policySrc})
		if err != nil {
			return 1, err
		}
		defer mkt.Close()
		if *marketNode != "" {
			lease := market.NewLeaderLease(*marketNode, 10*time.Second)
			mkt.SetLeaderLease(lease)
			// The leader keeps its own lease alive; replication reads are
			// side-effect free, so the lease dies with this process.
			stopHeartbeat := lease.Heartbeat()
			defer stopHeartbeat()
		}
		if *marketJobs != "" {
			jobDir := *marketJobs
			if jobDir == "mem" {
				jobDir = ""
			}
			jm, err := jobs.Open(jobs.Config{Dir: jobDir})
			if err != nil {
				return 1, fmt.Errorf("job queue: %w", err)
			}
			mkt.AttachJobs(jm, *marketWorkers)
		}
		if *marketFollow != "" {
			syncer = market.NewSyncer(reg, market.SyncConfig{
				Upstream: *marketFollow,
				Mode:     market.SyncMode(*marketSyncMode),
				Interval: *marketSyncInterval,
				Dir:      *marketDir,
				// Replicas share their leader's trust domain; federation
				// trusts only locally provisioned keys.
				TrustUpstreamKeys: market.SyncMode(*marketSyncMode) == market.SyncReplica,
			})
			market.MountSyncHTTP(syncer)
		}
		market.MountHTTP(mkt)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "market: loaded %d release(s) from %s\n", loaded, *marketDir)
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "market: refused %s\n", p)
			}
		}
	}

	if *marketNode != "" {
		span.SetNode(*marketNode)
	}
	stopTelemetry, err := telemetry.Start()
	if err != nil {
		return 1, err
	}
	defer stopTelemetry()
	bound := telemetry.Bound
	// The reconciled permissions go to stdout; the digest must not mix in.
	defer func() { fmt.Fprintln(os.Stderr, bench.TelemetrySummary()) }()

	if tmgr != nil {
		for _, id := range tmgr.Stored() {
			fmt.Printf("tenant %s\n", id)
		}
		if bound != "" {
			fmt.Fprintf(os.Stderr, "serving /t/<tenant>/ and /tenants endpoints on http://%s/ — interrupt to exit\n", bound)
			select {} // OnShutdown drains every tenant's job queues and exits
		}
		return 0, nil
	}

	if *marketDir != "" {
		if *marketSign {
			return runMarketSign(*marketDir, *appName, *manifestPath, *marketVendor, *marketVersion)
		}
		if syncer != nil {
			if bound != "" {
				// Serving: poll the upstream in the background for as long
				// as the /market endpoints are up.
				syncer.Start()
				defer syncer.Stop()
			} else if n, err := syncer.SyncOnce(); err != nil {
				return 1, fmt.Errorf("sync from %s: %w", *marketFollow, err)
			} else if !*quiet {
				st := syncer.Stats()
				fmt.Fprintf(os.Stderr, "market: pulled %d release(s) from %s (last seq %d, in sync: %v)\n",
					n, *marketFollow, st.LastSeq, st.InSync)
			}
		}
		return runMarketReport(mkt, *quiet, *strict, bound)
	}

	manifestSrc, err := os.ReadFile(*manifestPath)
	if err != nil {
		return 1, err
	}
	manifest, err := sdnshield.ParseManifest(string(manifestSrc))
	if err != nil {
		return 1, fmt.Errorf("parse manifest: %w", err)
	}

	var policy *sdnshield.Policy
	if policySrc != "" {
		policy, err = sdnshield.ParsePolicy(policySrc)
		if err != nil {
			return 1, fmt.Errorf("parse policy: %w", err)
		}
	}

	result, err := sdnshield.Reconcile(*appName, manifest, policy)
	if err != nil {
		return 1, err
	}

	if !*quiet {
		fmt.Printf("app: %s\n", result.App)
		if macros := manifest.Macros(); len(macros) > 0 {
			fmt.Printf("stub macros: %v\n", macros)
		}
		if result.Clean {
			fmt.Println("policy check: clean")
		} else {
			fmt.Printf("policy check: %d violation(s)\n", len(result.Violations))
			for _, v := range result.Violations {
				fmt.Println("  -", v)
			}
		}
		fmt.Println("reconciled permissions:")
	}
	fmt.Println(result.Permissions)

	if *strict && !result.Clean {
		return 2, nil
	}
	return 0, nil
}

// runMarketSign packages a manifest as a signed release and saves it
// into the market directory, vetting it through a registry first so a
// broken package is never written.
func runMarketSign(dir, app, manifestPath, vendor, version string) (int, error) {
	switch {
	case manifestPath == "":
		return 1, fmt.Errorf("-market-sign needs -manifest")
	case vendor == "":
		return 1, fmt.Errorf("-market-sign needs -market-vendor")
	case version == "":
		return 1, fmt.Errorf("-market-sign needs -market-version")
	}
	manifestSrc, err := os.ReadFile(manifestPath)
	if err != nil {
		return 1, err
	}
	priv, err := market.LoadPrivateKey(filepath.Join(dir, "keys", vendor+".key"))
	if err != nil {
		return 1, fmt.Errorf("vendor key (run -market-keygen %s first?): %w", vendor, err)
	}
	pub, err := market.LoadPublicKey(filepath.Join(dir, "keys", vendor+".pub"))
	if err != nil {
		return 1, err
	}
	sr := market.Sign(market.Release{
		Name: app, Vendor: vendor, Version: version, Manifest: string(manifestSrc),
	}, priv)

	reg := market.NewRegistry()
	if err := reg.TrustVendor(vendor, pub); err != nil {
		return 1, err
	}
	if _, err := reg.Submit(sr); err != nil {
		return 1, fmt.Errorf("package does not vet: %w", err)
	}
	path, err := market.SaveRelease(dir, sr)
	if err != nil {
		return 1, err
	}
	fmt.Printf("signed release %s@%s (%s)\n%s\n", app, version, sr.Digest(), path)
	return 0, nil
}

// runMarketReport prints every stored release's reconciliation verdict
// and, per app, the permission diff between the two latest versions.
// With a telemetry address bound it then serves the /market/* endpoints
// until interrupted.
func runMarketReport(m *market.Market, quiet, strict bool, bound string) (int, error) {
	violated := false
	for _, app := range m.Registry().Apps() {
		rels := m.Registry().Releases(app)
		for _, rel := range rels {
			res, err := m.Evaluate(rel.Digest())
			if err != nil {
				return 1, err
			}
			if res.Verdict != market.VerdictApproved {
				violated = true
			}
			fmt.Printf("%s@%s [%s] %s\n", res.App, res.Version, res.Vendor, res.Verdict)
			if !quiet {
				for _, v := range res.Violations {
					fmt.Println("  -", v)
				}
				fmt.Println("  effective:")
				for _, line := range strings.Split(res.Effective, "\n") {
					fmt.Println("    " + line)
				}
			}
		}
		if !quiet && len(rels) >= 2 {
			report, _, err := m.DiffLatest(app)
			if err != nil {
				return 1, err
			}
			fmt.Print(report)
		}
	}
	if bound != "" {
		fmt.Fprintf(os.Stderr, "serving /market endpoints on http://%s/ — interrupt to exit\n", bound)
		select {} // OnShutdown flushes and exits on SIGINT/SIGTERM
	}
	if strict && violated {
		return 2, nil
	}
	return 0, nil
}
