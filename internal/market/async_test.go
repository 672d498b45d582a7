package market

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs/span"
)

// asyncEnv wires a market onto a job spine with fast retry timings.
// dir may be "" for an ephemeral (memory-only) queue.
func asyncEnv(t *testing.T, dir string) (*Market, *jobs.Manager, *fakeRuntime, func(r Release) Digest) {
	t.Helper()
	reg, sign := newTestRegistry(t)
	rt := newFakeRuntime()
	m, err := New(reg, rt, Config{
		PolicySrc:     testPolicy,
		Probation:     80 * time.Millisecond,
		ProbationPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	jm, err := jobs.Open(jobs.Config{
		Dir: dir, MaxAttempts: 3,
		Backoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jm.Close() })
	m.AttachJobs(jm, 2)
	submit := func(r Release) Digest {
		sr := sign(r)
		d, err := reg.Submit(sr)
		if err != nil {
			t.Fatalf("submit %s@%s: %v", r.Name, r.Version, err)
		}
		return d
	}
	return m, jm, rt, submit
}

// waitJob polls until the job leaves the pending/running states.
func waitJob(t *testing.T, jm *jobs.Manager, id uint64) jobs.Snapshot {
	t.Helper()
	var snap jobs.Snapshot
	waitCond(t, "job settled", func() bool {
		s, ok := jm.Status(id)
		if !ok {
			return false
		}
		snap = s
		return s.State == jobs.StateDone || s.State == jobs.StateDead
	})
	return snap
}

func TestJobInstallRunsPipeline(t *testing.T) {
	m, jm, rt, submit := asyncEnv(t, "")
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"})

	id, err := m.SubmitJob(QueueInstall, JobRequest{Digest: d.String()}, 0, span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitJob(t, jm, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("job state = %s (err %q)", snap.State, snap.Error)
	}
	var res InstallResult
	if err := json.Unmarshal(snap.Result, &res); err != nil {
		t.Fatalf("result not an InstallResult: %v (%s)", err, snap.Result)
	}
	if res.Verdict != VerdictApproved || res.Status != StatusActive {
		t.Fatalf("verdict=%q status=%q", res.Verdict, res.Status)
	}
	if rt.permsOf("mon") == nil {
		t.Fatal("worker pipeline did not activate permissions")
	}
}

func TestJobRejectedDeadLettersWithReason(t *testing.T) {
	m, jm, rt, submit := asyncEnv(t, "")
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM process_runtime"})

	id, err := m.SubmitJob(QueueInstall, JobRequest{Digest: d.String()}, 0, span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitJob(t, jm, id)
	if snap.State != jobs.StateDead {
		t.Fatalf("rejected install job state = %s, want dead", snap.State)
	}
	// A deterministic rejection must not burn the retry budget.
	if snap.Attempts != 1 {
		t.Fatalf("rejection took %d attempts, want 1", snap.Attempts)
	}
	if !strings.Contains(snap.Error, "rejected") {
		t.Fatalf("dead job reason = %q, want the rejection", snap.Error)
	}
	if rt.permsOf("mon") != nil {
		t.Fatal("rejected release reached the runtime")
	}
	if dead := jm.Dead(QueueInstall); len(dead) != 1 || dead[0].ID != id {
		t.Fatalf("dead letter queue = %+v", dead)
	}
}

func TestJobUnknownDigestDeadLettersImmediately(t *testing.T) {
	m, jm, _, _ := asyncEnv(t, "")
	id, err := m.SubmitJob(QueueInstall, JobRequest{Digest: PolicyDigest("nope").String()}, 0, span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitJob(t, jm, id)
	if snap.State != jobs.StateDead || snap.Attempts != 1 {
		t.Fatalf("state=%s attempts=%d, want dead after 1", snap.State, snap.Attempts)
	}
}

func TestJobRecomputeSweepsRegistry(t *testing.T) {
	m, jm, _, submit := asyncEnv(t, "")
	mon1 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	mon2 := submit(Release{Name: "mon", Vendor: "acme", Version: "1.1.0", Manifest: "PERM read_statistics"})
	probe := submit(Release{Name: "probe", Vendor: "acme", Version: "2.0.0", Manifest: "PERM read_statistics"})

	id, err := m.SubmitJob(QueueRecompute, JobRequest{}, 0, span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitJob(t, jm, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("recompute job state = %s (err %q)", snap.State, snap.Error)
	}
	var res struct {
		Recomputed int `json:"recomputed"`
	}
	if err := json.Unmarshal(snap.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Recomputed != 3 {
		t.Fatalf("recomputed %d releases, want 3", res.Recomputed)
	}
	// Every verdict is now cached: installing any release is a hit.
	for _, step := range []struct {
		admit func(Digest) (*InstallResult, error)
		d     Digest
	}{{m.Install, mon1}, {m.Upgrade, mon2}, {m.Install, probe}} {
		// probe is rejected (the policy names only mon), from the cache too.
		res, err := step.admit(step.d)
		if (err != nil && !errors.Is(err, ErrRejected)) || res == nil || !res.CacheHit {
			t.Fatalf("admit %s: %v %+v, want a cache hit", step.d, err, res)
		}
	}
}

func TestSubmitJobWithoutManager(t *testing.T) {
	m, _, submit := marketEnv(t, "")
	d := submit(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if _, err := m.SubmitJob(QueueInstall, JobRequest{Digest: d.String()}, 0, span.Context{}); !errors.Is(err, ErrNoJobs) {
		t.Fatalf("err = %v, want ErrNoJobs", err)
	}
}

// TestJobSurvivesManagerCrash proves the market's durability end of the
// at-least-once contract: a job enqueued before a crash (no handler ran
// yet) replays on reopen and completes once workers attach.
func TestJobSurvivesManagerCrash(t *testing.T) {
	dir := t.TempDir()
	reg, sign := newTestRegistry(t)
	m, err := New(reg, newFakeRuntime(), Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	d, err := reg.Submit(sr)
	if err != nil {
		t.Fatal(err)
	}

	jm, err := jobs.Open(jobs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// No handler registered: the job sits pending, durably.
	payload, _ := json.Marshal(JobRequest{Digest: d.String()})
	id, err := jm.Enqueue(QueueInstall, payload)
	if err != nil {
		t.Fatal(err)
	}
	jm.Kill() // crash: nothing acked

	jm2, err := jobs.Open(jobs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jm2.Close() })
	m.AttachJobs(jm2, 1)
	snap := waitJob(t, jm2, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("replayed job state = %s (err %q)", snap.State, snap.Error)
	}
	var res InstallResult
	if err := json.Unmarshal(snap.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusActive {
		t.Fatalf("replayed install status = %q", res.Status)
	}
}
