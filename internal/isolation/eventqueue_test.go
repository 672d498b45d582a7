package isolation

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
)

// queueEnv is a kernel with one CBench fake switch: the test injects
// packet-ins and the kernel's dispatcher enqueues them into containers.
func queueEnv(t *testing.T, cfg Config) (*controller.Kernel, *Shield, *cbench.FakeSwitch) {
	t.Helper()
	k := controller.New(nil, nil)
	fs, err := cbench.Connect(k, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShield(k, cfg)
	t.Cleanup(func() {
		s.Stop()
		k.Stop()
		fs.Close()
	})
	return k, s, fs
}

// TestEventBurstDeliveredOnceByWorkers: four event workers share one
// queue. First, four events sent together must reach all four workers at
// once — each handler waits for the other three — so a worker that takes
// an event and leaves the rest behind must pass the wake on, or the
// other workers sleep beside a non-empty queue. Then a burst of ten
// queues' worth of packet-ins, with the kernel's dispatcher waiting on
// the full queue most of the time, reaches the app exactly once per
// packet-in: no duplicate, no loss.
func TestEventBurstDeliveredOnceByWorkers(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const queue, workers = 16, 4
			const burst = 10 * queue
			_, s, fs := queueEnv(t, Config{EventQueueSize: queue, EventWorkers: workers})
			grant(t, s, "burst", "PERM pkt_in_event")
			var (
				mu       sync.Mutex
				seen     = map[uint32]int{}
				count    atomic.Int64
				inFlight atomic.Int64
				together = make(chan struct{})
			)
			if err := s.Launch(app("burst", func(a API) error {
				return a.Subscribe(controller.EventPacketIn, func(ev controller.Event) {
					mu.Lock()
					seen[ev.PacketIn.BufferID]++
					mu.Unlock()
					n := count.Add(1)
					if n <= workers {
						if inFlight.Add(1) == workers {
							close(together)
						}
						select {
						case <-together:
						case <-time.After(5 * time.Second):
							t.Errorf("%d of %d workers ran: a wake-up was lost", inFlight.Load(), workers)
						}
					} else if n%3 == 0 {
						runtime.Gosched() // stagger the workers
					}
				})
			})); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < workers; i++ {
				if err := fs.SendPacketIn(i, 8, 1); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-together:
			case <-time.After(6 * time.Second):
				t.Fatalf("%d of %d workers ran: a wake-up was lost", inFlight.Load(), workers)
			}
			for i := workers; i < burst; i++ {
				if err := fs.SendPacketIn(i%8, 8+i%8, 1); err != nil {
					t.Fatal(err)
				}
			}
			waitCond(t, 5*time.Second, fmt.Sprintf("%d deliveries (have %d)", burst, count.Load()),
				func() bool { return count.Load() >= burst })
			time.Sleep(10 * time.Millisecond) // a duplicate would land here
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != burst || count.Load() != burst {
				t.Fatalf("%d distinct packet-ins in %d deliveries, want %d once each", len(seen), count.Load(), burst)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("buffer %d delivered %d times", id, n)
				}
			}
		})
	}
}

// TestStopReleasesBlockedEnqueuer: with the app's queue full and the
// kernel's dispatcher waiting to enqueue one more event, Stop returns as
// soon as the running handler does, no handler starts after it returns,
// and the kernel — whose Stop waits for that dispatcher — stops too.
func TestStopReleasesBlockedEnqueuer(t *testing.T) {
	const queue = 2
	k, s, fs := queueEnv(t, Config{EventQueueSize: queue})
	grant(t, s, "stuck", "PERM pkt_in_event")
	release := make(chan struct{})
	started := make(chan struct{}, queue+4)
	var stopped atomic.Bool
	if err := s.Launch(app("stuck", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {
			if stopped.Load() {
				t.Error("a handler started after Stop returned")
			}
			started <- struct{}{}
			<-release
		})
	})); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Container("stuck")
	// One event in the handler, queue more in the queue, one enqueuer
	// waiting for room.
	for i := 0; i < queue+2; i++ {
		if err := fs.SendPacketIn(i, 8, 1); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	waitCond(t, 5*time.Second, "the dispatcher to reach the full queue",
		func() bool { return c.deliveries.Load() == queue+2 })

	stopDone := make(chan struct{})
	go func() {
		s.Stop()
		stopped.Store(true)
		close(stopDone)
	}()
	waitCond(t, 5*time.Second, "Stop to begin", func() bool { return c.Health() == Stopped })
	close(release)
	select {
	case <-stopDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop still blocked 2s after the handler returned")
	}
	kernelDone := make(chan struct{})
	go func() {
		k.Stop()
		close(kernelDone)
	}()
	select {
	case <-kernelDone:
	case <-time.After(2 * time.Second):
		t.Fatal("kernel Stop blocked: its dispatcher is still waiting on the stopped app's queue")
	}
	time.Sleep(10 * time.Millisecond) // a handler started late would report here
}

// TestDropOnFullQueueCountsEveryOverflow: with DropOnFullQueue, every
// event that finds the queue full is counted once in DroppedEvents, and
// the ones that fit are delivered.
func TestDropOnFullQueueCountsEveryOverflow(t *testing.T) {
	const queue, sent = 4, 40
	_, s, fs := queueEnv(t, Config{EventQueueSize: queue, DropOnFullQueue: true})
	grant(t, s, "slow", "PERM pkt_in_event")
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var handled atomic.Int64
	if err := s.Launch(app("slow", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {
			if handled.Add(1) == 1 {
				started <- struct{}{}
				<-release
			}
		})
	})); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Container("slow")
	// The first event occupies the handler; of the rest, queue fit and
	// the others overflow.
	if err := fs.SendPacketIn(0, 8, 1); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i < sent; i++ {
		if err := fs.SendPacketIn(i%8, 8, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 5*time.Second, "every event to be offered", func() bool { return c.deliveries.Load() == sent })
	if got, want := c.DroppedEvents(), uint64(sent-1-queue); got != want {
		t.Fatalf("DroppedEvents = %d, want %d", got, want)
	}
	close(release)
	waitCond(t, 5*time.Second, "the queued events", func() bool { return handled.Load() == 1+queue })
	time.Sleep(10 * time.Millisecond)
	if h, d := handled.Load(), c.DroppedEvents(); h+int64(d) != sent {
		t.Fatalf("handled %d + dropped %d != %d sent", h, d, sent)
	}
}
