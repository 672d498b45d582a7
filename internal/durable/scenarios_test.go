package durable_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sdnshield/internal/jobs"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/tenant"
)

// failed reports whether a scenario's call failed, which only the
// injected crash may make it do.
func failed(t *testing.T, what string, err error) bool {
	t.Helper()
	if err != nil && !errors.Is(err, errCrashed) {
		t.Errorf("%s failed without a crash: %v", what, err)
	}
	return err != nil
}

// TestCrashAtEveryWriteMarket: a crash at any point of Keygen and three
// SaveReleases leaves a store that loads without a problem, holding
// every release whose SaveRelease returned.
func TestCrashAtEveryWriteMarket(t *testing.T) {
	enumerate(t, func(t *testing.T, root string) func(*testing.T, string) {
		var saved []market.Digest
		pub, keyErr := market.Keygen(root, "acme")
		check := func(t *testing.T, dir string) {
			reg := market.NewRegistry()
			_, problems, err := market.LoadDir(dir, reg)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 0 {
				t.Fatalf("torn store: %v", problems)
			}
			if keyErr == nil {
				if got, ok := reg.VendorKey("acme"); !ok || !got.Equal(pub) {
					t.Fatalf("Keygen returned but its key did not survive")
				}
			}
			for _, d := range saved {
				sr, err := reg.Release(d)
				if err != nil {
					t.Fatalf("SaveRelease of %s returned but it did not load: %v", d, err)
				}
				if !sr.VerifySignature(pub) {
					t.Fatalf("release %s does not verify", d)
				}
			}
		}
		if failed(t, "Keygen", keyErr) {
			return check
		}
		priv, err := market.LoadPrivateKey(filepath.Join(root, "keys", "acme.key"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			sr := market.Sign(market.Release{
				Name: fmt.Sprintf("app%d", i), Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics",
			}, priv)
			if _, err := market.SaveRelease(root, sr); failed(t, "SaveRelease", err) {
				break
			}
			saved = append(saved, sr.Digest())
		}
		return check
	})
}

// TestCrashAtEveryWriteTenant: a crash at any point of a run of
// creations and suspend/resume toggles leaves records that all parse,
// each tenant in the state its last returned call wrote, or the one
// the call in flight at the crash was writing.
func TestCrashAtEveryWriteTenant(t *testing.T) {
	open := func(root string) (*tenant.Manager, error) {
		return tenant.NewManager(tenant.Config{
			Dir: filepath.Join(root, "tenants"), SweepInterval: -1, Registry: obs.NewRegistry(),
		})
	}
	enumerate(t, func(t *testing.T, root string) func(*testing.T, string) {
		want := map[string]tenant.State{}     // written by the last call that returned
		inFlight := map[string]tenant.State{} // written by the call the crash cut short
		check := func(t *testing.T, dir string) {
			m, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for _, id := range m.Stored() {
				if _, ok := want[id]; !ok && inFlight[id] == "" {
					t.Errorf("tenant %s is stored but was never created", id)
				}
			}
			for _, id := range []string{"acme", "globex"} {
				w, created := want[id]
				tn, err := m.Get(id)
				switch {
				case err != nil && (created || !errors.Is(err, tenant.ErrUnknownTenant)):
					t.Errorf("Get(%s): %v", id, err)
				case err == nil && tn.State() != w && tn.State() != inFlight[id]:
					t.Errorf("tenant %s is %s, want %s (or %q, in flight)", id, tn.State(), w, inFlight[id])
				}
			}
		}
		m, err := open(root)
		if failed(t, "NewManager", err) {
			return check
		}
		defer m.Close()
		create := func(id string) error { _, err := m.Create(id); return err }
		for _, s := range []struct {
			id string
			st tenant.State
			do func(string) error
		}{
			{"acme", tenant.StateActive, create},
			{"acme", tenant.StateSuspended, m.Suspend},
			{"globex", tenant.StateActive, create},
			{"acme", tenant.StateActive, m.Resume},
			{"globex", tenant.StateSuspended, m.Suspend},
		} {
			if err := s.do(s.id); failed(t, "tenant "+s.id, err) {
				inFlight[s.id] = s.st
				break
			}
			want[s.id] = s.st
		}
		return check
	})
}

// TestCrashAtEveryWriteJobs: a crash at any point of three process
// lifetimes of a queue (enqueue and shut down; run and ack, enqueue
// more and shut down; reopen, which compacts, enqueue and shut down)
// loses no job enqueued before the last Close that returned — the
// fsync a power loss cannot undo — except acked jobs once compaction may
// have dropped them, and a reopened queue issues IDs above every one it
// kept or that Close made durable. SyncInterval is an hour so that only
// Close syncs and the op sequence is fixed.
func TestCrashAtEveryWriteJobs(t *testing.T) {
	cfgAt := func(root string) jobs.Config {
		return jobs.Config{Dir: filepath.Join(root, "queue"), SyncInterval: time.Hour}
	}
	enumerate(t, func(t *testing.T, root string) func(*testing.T, string) {
		var enqueued []uint64
		acked := map[uint64]bool{}
		compacted := false // the lifetime whose Open compacts acked jobs away has begun
		synced := 0        // enqueued[:synced] preceded the last Close that returned nil
		check := func(t *testing.T, dir string) {
			m, err := jobs.Open(cfgAt(dir))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer m.Close()
			var high uint64
			if synced > 0 {
				high = enqueued[synced-1]
			}
			for i, id := range enqueued {
				s, ok := m.Status(id)
				if ok && id > high {
					high = id
				}
				switch {
				case i >= synced:
				case !ok && !(acked[id] && compacted):
					t.Errorf("job %d was synced but is lost", id)
				case ok && !acked[id] && s.State != jobs.StatePending:
					t.Errorf("job %d reads %q, want pending", id, s.State)
				case ok && s.State != jobs.StatePending && s.State != jobs.StateDone:
					t.Errorf("acked job %d reads %q", id, s.State)
				}
			}
			if id, err := m.Enqueue("probe", nil); err != nil || id <= high {
				t.Errorf("reopened queue issued ID %d (err %v), want above %d", id, err, high)
			}
		}
		// lifetime runs one process: it opens the queue, does its work and
		// closes it, reporting whether every call returned.
		lifetime := func(work func(m *jobs.Manager) bool) bool {
			m, err := jobs.Open(cfgAt(root))
			if failed(t, "Open", err) {
				return false
			}
			if !work(m) {
				_ = m.Close() // a crashed process: its error is expected
				return false
			}
			if err := m.Close(); failed(t, "Close", err) {
				return false
			}
			synced = len(enqueued)
			return true
		}
		enqueue := func(m *jobs.Manager, queue string, n int) bool {
			for i := 0; i < n; i++ {
				id, err := m.Enqueue(queue, []byte("p"))
				if failed(t, "Enqueue", err) {
					return false
				}
				enqueued = append(enqueued, id)
			}
			return true
		}
		if !lifetime(func(m *jobs.Manager) bool { return enqueue(m, "work", 3) }) {
			return check
		}
		acks := func(m *jobs.Manager) bool {
			m.Handle("work", 1, func(jobs.Snapshot) ([]byte, error) { return nil, nil })
			for _, id := range enqueued {
				deadline := time.Now().Add(5 * time.Second)
				for s, _ := m.Status(id); s.State != jobs.StateDone; s, _ = m.Status(id) {
					if time.Now().After(deadline) {
						t.Fatalf("job %d never ran", id)
					}
					time.Sleep(time.Millisecond)
				}
				acked[id] = true
			}
			return enqueue(m, "idle", 2)
		}
		if !lifetime(acks) {
			return check
		}
		compacted = true
		lifetime(func(m *jobs.Manager) bool { return enqueue(m, "idle", 1) })
		return check
	})
}
