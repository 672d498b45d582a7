package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/durable"
	"sdnshield/internal/jobs"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/tenant"
)

// crashBeforeFsync runs do with a crash at its first fsync, which leaves
// a written temp file behind, and returns that file's path.
func crashBeforeFsync(t *testing.T, root string, do func() error) string {
	t.Helper()
	var temps []string
	c := newCrashFS(root, func(_ int, op string) bool { return strings.HasPrefix(op, "fsync") })
	restore := durable.SetFS(c)
	err := do()
	restore()
	if !errors.Is(err, errCrashed) {
		t.Fatalf("want a crash, got %v", err)
	}
	for p := range c.live {
		if tmpSuffix.MatchString(p) {
			temps = append(temps, p)
		}
	}
	if len(temps) != 1 {
		t.Fatalf("want one leftover temp file, have %v", temps)
	}
	if _, err := os.Stat(temps[0]); err != nil {
		t.Fatal(err)
	}
	return temps[0]
}

// TestCrashLeftoversAreInert: the temp file a crash leaves in a release
// dir, a tenant dir or a queue dir is ignored by the store that reads
// the dir.
func TestCrashLeftoversAreInert(t *testing.T) {
	root := t.TempDir()

	mdir := filepath.Join(root, "market")
	if _, err := market.Keygen(mdir, "acme"); err != nil {
		t.Fatal(err)
	}
	priv, err := market.LoadPrivateKey(filepath.Join(mdir, "keys", "acme.key"))
	if err != nil {
		t.Fatal(err)
	}
	kept := market.Sign(market.Release{Name: "kept", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	if _, err := market.SaveRelease(mdir, kept); err != nil {
		t.Fatal(err)
	}
	cut := market.Sign(market.Release{Name: "cut", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	temp := crashBeforeFsync(t, root, func() error { _, err := market.SaveRelease(mdir, cut); return err })
	if filepath.Dir(temp) != filepath.Join(mdir, "releases") {
		t.Fatalf("leftover %s is not in the release dir", temp)
	}
	reg := market.NewRegistry()
	if loaded, problems, err := market.LoadDir(mdir, reg); err != nil || loaded != 1 || len(problems) != 0 {
		t.Fatalf("LoadDir beside a leftover: loaded %d, problems %v, err %v", loaded, problems, err)
	}

	tcfg := tenant.Config{Dir: filepath.Join(root, "tenants"), SweepInterval: -1, Registry: obs.NewRegistry()}
	tm, err := tenant.NewManager(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Create("acme"); err != nil {
		t.Fatal(err)
	}
	crashBeforeFsync(t, root, func() error { _, err := tm.Create("globex"); return err })
	tm.Close()
	tm, err = tenant.NewManager(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if got := tm.Stored(); len(got) != 1 || got[0] != "acme" {
		t.Fatalf("Stored beside a leftover = %v, want [acme]", got)
	}
	if _, err := tm.Get("globex"); !errors.Is(err, tenant.ErrUnknownTenant) {
		t.Fatalf("Get of a tenant whose record never landed: %v", err)
	}

	qcfg := jobs.Config{Dir: filepath.Join(root, "queue"), SyncInterval: time.Hour}
	jm, err := jobs.Open(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	done, err := jm.Enqueue("work", nil)
	if err != nil {
		t.Fatal(err)
	}
	jm.Handle("work", 1, func(jobs.Snapshot) ([]byte, error) { return nil, nil })
	for s, _ := jm.Status(done); s.State != jobs.StateDone; s, _ = jm.Status(done) {
		time.Sleep(time.Millisecond)
	}
	waiting, err := jm.Enqueue("idle", []byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening compacts the acked job away; the crash cuts the rewrite.
	crashBeforeFsync(t, root, func() error { _, err := jobs.Open(qcfg); return err })
	jm, err = jobs.Open(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	if s, ok := jm.Status(waiting); !ok || s.State != jobs.StatePending || string(s.Payload) != "keep" {
		t.Fatalf("job beside a leftover = %+v (present %v)", s, ok)
	}
}
