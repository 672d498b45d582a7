package isolation

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
)

// do runs fn as a mediated call of an ad-hoc op on c's behalf (c may be
// nil): fn is the op's effect, so the call crosses the hop every op crosses —
// pooled request, deputy slot, protect — without a permission check.
func (s *Shield) do(c *Container, op *mediatedOp, org controller.Origin, fn func(controller.Origin) error) error {
	row := *op
	row.decide = func(*request) error { return nil }
	row.effect = func(r *request) error { return fn(r.org) }
	r := (&shieldedAPI{name: org.App, shield: s, container: c}).request(&row, args{})
	defer r.put()
	r.org = org
	return s.hop(r)
}

// TestCallRacingStopNeverPanics: callers hammering a handle while the
// shield stops get their call's real result or ErrShieldStopped — never a
// send on the closed KSD queue, never a wait that does not end. So does a
// transaction committer: a commit in flight when Stop begins is decided
// before Stop returns.
func TestCallRacingStopNeverPanics(t *testing.T) {
	errDecidedLate := errors.New("planned call decided after Stop returned")
	for round := 0; round < 200; round++ {
		b, k := wire(t, 1, nil)
		s := NewShield(k, noQuotaLoop())
		grant(t, s, "caller", "PERM visible_topology")
		if err := s.Launch(app("caller", func(API) error { return nil })); err != nil {
			t.Fatal(err)
		}
		api, err := AttackerHandle(s, "caller")
		if err != nil {
			t.Fatal(err)
		}
		// Stop once calls are flowing; callers the scheduler has not run
		// yet find the shield stopped.
		var wg sync.WaitGroup
		var calls atomic.Int64
		flowing := make(chan struct{})
		errs := make(chan error, 5)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := api.Switches()
					if calls.Add(1) == 16 {
						close(flowing)
					}
					if err != nil {
						if !errors.Is(err, ErrShieldStopped) {
							errs <- err
						}
						return
					}
					runtime.Gosched() // let Stop in on one core too
				}
			}()
		}
		// The committer's planned call is decided slowly, so a commit is
		// in flight when Stop begins.
		var stopReturned atomic.Bool
		deciding := make(chan struct{}, 1)
		slow := *opInsertFlow
		slow.decide = func(*request) error {
			select {
			case deciding <- struct{}{}:
			default:
			}
			time.Sleep(2 * time.Millisecond)
			if stopReturned.Load() {
				return errDecidedLate
			}
			return nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tx := api.Transaction()
				tx.plan(&slow, args{dpid: 1, spec: controller.FlowSpec{Priority: 1}})
				if err := tx.Commit(); err != nil {
					if !errors.Is(err, ErrShieldStopped) {
						errs <- err
					}
					return
				}
			}
		}()
		<-flowing
		<-deciding
		s.Stop()
		stopReturned.Store(true)
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: callers still blocked 10s after Stop returned", round)
		}
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: call racing Stop failed with %v, want ErrShieldStopped", round, err)
		}
		k.Stop()
		b.Net.Stop()
	}
}

// TestPooledRequestReuse: eight goroutines of one app share the request
// pool — inserts, flow stats, model reads of one path per goroutine, and
// denied calls — with every call measured and one in sixteen traced.
// Every result is its own call's: the rows, the value, the
// verdict. Under -race it also proves the deputy is done with a request
// before its caller reuses it.
func TestPooledRequestReuse(t *testing.T) {
	prevSampling := obs.SetLatencySampling(1)
	prevObs, prevSpan := obs.SetEnabled(true), span.SetEnabled(true)
	t.Cleanup(func() {
		audit.Default().Flush() // leave later tests no drain backlog
		obs.SetLatencySampling(prevSampling)
		obs.SetEnabled(prevObs)
		span.SetEnabled(prevSpan)
	})
	env := newEnvCfg(t, 1, noQuotaLoop())
	api := launchAPI(t, env, "pool", "PERM insert_flow LIMITING ACTION FORWARD\nPERM read_statistics\nPERM visible_topology")
	const workers, rounds = 8, 40
	for g := 0; g < workers; g++ {
		env.kernel.Publish(fmt.Sprintf("topology/g%d", g), g)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			port := uint64(1000 + g)
			mine := of.NewMatch().Set(of.FieldTPDst, port)
			for i := 0; i < rounds; i++ {
				m := mine.Clone().Set(of.FieldIPSrc, uint64(i+1))
				if err := api.InsertFlow(1, controller.FlowSpec{Match: m, Priority: 10, Actions: []of.Action{of.Output(2)}}); err != nil {
					t.Errorf("goroutine %d: insert: %v", g, err)
					return
				}
				rows, err := api.FlowStats(1, mine)
				if err != nil {
					t.Errorf("goroutine %d: flow stats: %v", g, err)
					return
				}
				for _, row := range rows {
					if v, _ := row.Match.Get(of.FieldTPDst); v != port {
						t.Errorf("goroutine %d: flow stats for TP_DST %d returned a row of TP_DST %d", g, port, v)
					}
				}
				v, ok, err := api.ReadModel(fmt.Sprintf("topology/g%d", g))
				if err != nil || !ok || v != g {
					t.Errorf("goroutine %d: read model = %v, %v, %v", g, v, ok, err)
				}
				var denied *permengine.DeniedError
				err = api.InsertFlow(1, controller.FlowSpec{Match: m, Priority: 20, Actions: []of.Action{of.Drop()}})
				if !errors.As(err, &denied) || denied.App != "pool" || denied.Token.String() != "insert_flow" {
					t.Errorf("goroutine %d: drop rule: err %v, want its own insert_flow denial", g, err)
				}
				if _, _, err := api.ReadModel("flows/x"); !errors.As(err, &denied) || denied.Token.String() != "read_flow_table" {
					t.Errorf("goroutine %d: flows read: err %v, want its own read_flow_table denial", g, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := env.kernel.Barrier(1); err != nil {
		t.Fatal(err)
	}
	entries, err := env.kernel.Flows(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != workers*rounds {
		t.Errorf("%d rules resident, want %d", len(entries), workers*rounds)
	}
}

// allocsPerCall is testing.AllocsPerRun without the rounding: the mean
// number of heap allocations per call of f, process-wide, so work f hands
// to other goroutines counts too.
func allocsPerCall(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// allocArm is one runtime under the allocation budget: a kernel with one
// fake switch and an app whose packet-in handler signals delivered.
type allocArm struct {
	fs        *cbench.FakeSwitch
	api       API
	delivered chan struct{}
}

func newAllocArm(t *testing.T, shielded bool) *allocArm {
	t.Helper()
	k := controller.New(nil, nil)
	fs, err := cbench.Connect(k, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := &allocArm{fs: fs, delivered: make(chan struct{}, 1)}
	probe := app("allocs", func(api API) error {
		a.api = api
		return api.Subscribe(controller.EventPacketIn, func(controller.Event) { a.delivered <- struct{}{} })
	})
	if shielded {
		s := NewShield(k, noQuotaLoop())
		t.Cleanup(s.Stop)
		grant(t, s, "allocs", "PERM insert_flow\nPERM read_statistics\nPERM send_pkt_out\nPERM pkt_in_event")
		err = s.Launch(probe)
	} else {
		err = NewMonolith(k).Launch(probe)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		k.Stop()
		fs.Close()
	})
	return a
}

// TestMediatedCallAllocs is the allocation budget of the mediated call,
// audit on: the shield allocates nothing an InsertFlow, a FlowStats, a
// buffered packet-out or a packet-in delivery does not allocate on the
// monolith (the packet-out's copy of its actions shares the message's
// allocation, in both runtimes). The audit journal's emit and drain
// allocate nothing per event.
func TestMediatedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on channel operations")
	}
	prevAudit := audit.SetEnabled(true)
	prevObs := obs.SetEnabled(false) // no sampled measurement, so no spans
	t.Cleanup(func() {
		audit.Default().Flush() // leave later tests no drain backlog
		audit.SetEnabled(prevAudit)
		obs.SetEnabled(prevObs)
	})
	const n = 2000
	spec := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, 80), Priority: 10, Actions: []of.Action{of.Output(2)}}
	flood := []of.Action{of.Flood()}
	measure := func(a *allocArm) (insert, stats, pktOut, deliver float64) {
		insert = allocsPerCall(n, func() {
			if err := a.api.InsertFlow(1, spec); err != nil {
				t.Fatal(err)
			}
		})
		stats = allocsPerCall(n, func() {
			if _, err := a.api.FlowStats(1, spec.Match); err != nil {
				t.Fatal(err)
			}
		})
		pktOut = allocsPerCall(n, func() {
			if err := a.api.SendPacketOut(1, 7, 1, flood, nil); err != nil {
				t.Fatal(err)
			}
		})
		deliver = allocsPerCall(n, func() {
			if err := a.fs.SendPacketIn(1, 2, 1); err != nil {
				t.Fatal(err)
			}
			<-a.delivered
		})
		return insert, stats, pktOut, deliver
	}
	mi, ms, mp, md := measure(newAllocArm(t, false))
	si, ss, sp, sd := measure(newAllocArm(t, true))
	for _, c := range []struct {
		what        string
		shield, mon float64
	}{
		{"InsertFlow", si, mi},
		{"FlowStats", ss, ms},
		{"packet-in delivery", sd, md},
		{"buffered SendPacketOut", sp, mp},
	} {
		t.Logf("%s: shield %.2f, monolith %.2f allocs per call", c.what, c.shield, c.mon)
		if c.shield-c.mon > 0.5 {
			t.Errorf("%s: shield makes %.2f allocations per call, monolith %.2f: the shield may add none",
				c.what, c.shield, c.mon)
		}
	}

	j := audit.NewJournal(audit.JournalConfig{Shards: 1})
	var consumed int
	j.AddConsumer(func(audit.Event) { consumed++ })
	ev := audit.Event{Kind: audit.KindPermission, Verdict: audit.VerdictAllow, App: "allocs", Token: "insert_flow"}
	if got := allocsPerCall(n, func() { j.Emit(ev); j.DrainNow() }); got > 0.5 || consumed != n+1 {
		t.Errorf("journal emit + drain: %.2f allocations per event (want 0), %d events consumed (want %d)", got, consumed, n+1)
	}
}

// TestNewShieldStartsNoGoroutines: a deputy is a slot, not a goroutine —
// without its quota sweep a new shield starts none.
func TestNewShieldStartsNoGoroutines(t *testing.T) {
	k := controller.New(nil, nil)
	defer k.Stop()
	before := runtime.NumGoroutine()
	s := NewShield(k, Config{KSDWorkers: 4, QuotaCheckInterval: -1})
	defer s.Stop()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewShield started %d goroutines", n-before)
	}
}

// TestDeputySlotsBoundCalls: with two slots, two of five callers run
// their effects and the other three wait, counted as the queue depth
// /health reports, and so does a transaction's commit; once released
// every call completes and the queue is empty.
func TestDeputySlotsBoundCalls(t *testing.T) {
	s := NewShield(controller.New(nil, nil), noQuotaLoop()) // two slots
	t.Cleanup(func() { s.Stop(); s.Kernel().Stop() })
	grant(t, s, "txer", "PERM insert_flow")
	if err := s.Launch(app("txer", func(API) error { return nil })); err != nil {
		t.Fatal(err)
	}
	txer, err := AttackerHandle(s, "txer")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 5
	op := newMediatedOp("slot_probe")
	entered, release, errs := make(chan struct{}, callers), make(chan struct{}), make(chan error, callers)
	var released sync.Once
	free := func() { released.Do(func() { close(release) }) }
	t.Cleanup(free) // before Stop, which waits for the parked calls
	for i := 0; i < callers; i++ {
		go func() {
			errs <- s.do(nil, op, controller.Origin{App: "slots"}, func(controller.Origin) error {
				entered <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	<-entered
	<-entered
	for deadline := time.Now().Add(5 * time.Second); s.HealthSnapshot().QueueDepth != callers-2; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want %d callers waiting", s.HealthSnapshot().QueueDepth, callers-2)
		}
		time.Sleep(time.Millisecond)
	}
	committed := make(chan error, 1)
	go func() {
		committed <- txer.Transaction().InsertFlow(1, controller.FlowSpec{Match: of.NewMatch(), Priority: 1}).
			InsertFlow(1, controller.FlowSpec{Match: of.NewMatch(), Priority: 2}).Commit()
	}()
	for deadline := time.Now().Add(5 * time.Second); s.HealthSnapshot().QueueDepth != callers-1; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want %d: a tx commit does not wait for a slot", s.HealthSnapshot().QueueDepth, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-entered:
		t.Fatal("a third effect runs while two slots are held")
	case err := <-committed:
		t.Fatalf("a tx committed (%v) while two slots are held", err)
	case <-time.After(20 * time.Millisecond):
	}
	free()
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The kernel has no switch 1: the commit's own result, once it ran.
	var txErr *TxError
	if err := <-committed; !errors.As(err, &txErr) || txErr.Stage != "apply" {
		t.Fatalf("commit after release = %v, want its apply failure on the missing switch", err)
	}
	if snap := s.HealthSnapshot(); snap.QueueDepth != 0 || snap.KSDWorkers != 2 {
		t.Fatalf("after release: queue depth %d, ksd_workers %d; want 0, 2", snap.QueueDepth, snap.KSDWorkers)
	}
}

// TestPanickingCallReleasesSlot: on a shield of one slot, a call whose
// effect panics returns the panic as its error, and the next call still
// gets the slot.
func TestPanickingCallReleasesSlot(t *testing.T) {
	s := NewShield(controller.New(nil, nil), Config{KSDWorkers: 1, QuotaCheckInterval: -1})
	t.Cleanup(func() { s.Stop(); s.Kernel().Stop() })
	op := newMediatedOp("slot_panic")
	err := s.do(nil, op, controller.Origin{App: "slots"}, func(controller.Origin) error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panic in mediated API call: boom") {
		t.Fatalf("panicking call: err = %v, want the panic as an error", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- s.do(nil, op, controller.Origin{App: "slots"}, func(controller.Origin) error { return nil })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after the panic: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call after the panic never got the slot")
	}
}
