package isolation

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/controller"
)

// TestAdmissionRacesStop races admissions, slot hand-offs and Stop, on one
// slot and on four: callers loop over a call whose effect yields while it
// holds its slot, so others park and are handed slots, until Stop refuses
// them. No more calls than slots ever run at once, every call returns nil
// or ErrShieldStopped, every admitted call has finished when Stop returns
// and none starts after, and the pool is left stopped and empty.
func TestAdmissionRacesStop(t *testing.T) {
	for _, slots := range []int{1, 4} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			var handedOff bool
			for round := 0; round < 60; round++ {
				if admissionRound(t, slots, round) {
					handedOff = true
				}
			}
			if !handedOff {
				t.Error("no round saw a caller wait for a slot: the hand-off went untested")
			}
		})
	}
}

// admissionRound runs one round of TestAdmissionRacesStop and reports
// whether a caller waited for a slot in it.
func admissionRound(t *testing.T, slots, round int) (waited bool) {
	t.Helper()
	k := controller.New(nil, nil)
	defer k.Stop()
	s := NewShield(k, Config{KSDWorkers: slots, QuotaCheckInterval: -1})
	op := newMediatedOp("admission_race")
	var running, calls atomic.Int64
	var stopReturned, sawWaiter atomic.Bool
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	effect := func(controller.Origin) error {
		if n := running.Add(1); n > int64(slots) {
			report(fmt.Errorf("%d calls run on %d slots", n, slots))
		}
		if stopReturned.Load() {
			report(errors.New("a call ran after Stop returned"))
		}
		if s.adm.waiting() > 0 {
			sawWaiter.Store(true)
		}
		runtime.Gosched()
		running.Add(-1)
		return nil
	}
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for g := 0; g < 3*slots+2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := s.do(nil, op, controller.Origin{App: "racer"}, effect)
				if calls.Add(1) == int64(4*slots) {
					once.Do(func() { close(started) })
				}
				if errors.Is(err, ErrShieldStopped) {
					return
				}
				if err != nil {
					report(err)
					return
				}
			}
		}()
	}
	<-started
	runningAtStop := make(chan int64, 1)
	go func() {
		s.Stop()
		n := running.Load()
		stopReturned.Store(true)
		runningAtStop <- n
	}()
	select {
	case n := <-runningAtStop:
		if n != 0 {
			t.Fatalf("round %d: Stop returned with %d calls running", round, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("round %d: Stop still waiting after 10s: a parked caller was never handed a slot", round)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("round %d: callers still blocked 10s after Stop returned", round)
	}
	close(errs)
	for err := range errs {
		t.Fatalf("round %d: %v", round, err)
	}
	if w := s.adm.word.Load(); w != admStopped {
		t.Fatalf("round %d: admission word %#x after Stop, want only the stopped bit", round, w)
	}
	return sawWaiter.Load()
}

// TestAdmissionWaiterOutlivesStop: a caller already waiting for the one
// slot when the pool stops still gets it, and the stop's wait returns
// only once that caller has left; a caller arriving after the stop is
// refused.
func TestAdmissionWaiterOutlivesStop(t *testing.T) {
	a := newAdmission(1)
	if !a.enter() {
		t.Fatal("an idle pool refused a call")
	}
	admitted := make(chan bool)
	release := make(chan struct{})
	go func() {
		ok := a.enter()
		admitted <- ok
		if ok {
			<-release
			a.leave()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); a.waiting() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waiting = %d, want the second caller waiting", a.waiting())
		}
	}
	if !a.stop() || a.stop() {
		t.Fatal("stop reports true exactly once")
	}
	if a.enter() {
		t.Fatal("a call entered a stopped pool")
	}
	drained := make(chan struct{})
	go func() { a.wait(); close(drained) }()
	a.leave() // the slot passes to the waiter
	if !<-admitted {
		t.Fatal("the caller waiting when the pool stopped was refused")
	}
	select {
	case <-drained:
		t.Fatal("the pool drained while the handed-off caller still held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the pool never drained")
	}
	if w := a.word.Load(); w != admStopped {
		t.Fatalf("word %#x, want only the stopped bit", w)
	}
}
