package handoff

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFIFOAndClose: values leave in order; after Close, Put fails and
// Get drains what was queued, then reports false.
func TestFIFOAndClose(t *testing.T) {
	q := New[int](4)
	for i := 0; i < 3; i++ {
		if err := q.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := q.Get(); !ok || v != 0 {
		t.Fatalf("Get = %d, %v; want 0", v, ok)
	}
	q.Close()
	if err := q.Put(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if err := q.TryPut(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPut after Close = %v, want ErrClosed", err)
	}
	for want := 1; want < 3; want++ {
		if v, ok := q.Get(); !ok || v != want {
			t.Fatalf("drain Get = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := q.Get(); ok {
		t.Fatal("Get on a closed, empty queue reported a value")
	}
	q.Close() // a second Close is a no-op
}

// TestTryPutFull: TryPut refuses a full queue without waiting.
func TestTryPutFull(t *testing.T) {
	q := New[int](1)
	if err := q.TryPut(1); err != nil {
		t.Fatal(err)
	}
	if err := q.TryPut(2); !errors.Is(err, ErrFull) {
		t.Fatalf("TryPut on a full queue = %v, want ErrFull", err)
	}
}

// TestWakePassedOn: in each round four values are put back to back and
// four consumers must each hold one at the same time before any returns
// for more. A consumer that takes a value and leaves the others queued
// without passing the wake on strands a parked consumer beside them, and
// the round never completes. The window is narrow — two puts while two
// consumers are between counting themselves and parking — so the test
// runs many rounds on four Ps; a queue that does not pass the wake on
// failed it within a few thousand rounds in most runs.
func TestWakePassedOn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const consumers, rounds = 4, 50000
	q := New[int](consumers)
	var (
		mu      sync.Mutex
		holding int
		gen     int // rounds completed
		round   = make(chan struct{})
		wg      sync.WaitGroup
	)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := q.Get(); !ok {
					return
				}
				mu.Lock()
				mine := gen
				if holding++; holding == consumers {
					holding = 0
					gen++
					mu.Unlock()
					round <- struct{}{}
					continue
				}
				mu.Unlock()
				// Wait for the round to fill before taking another value.
				for {
					mu.Lock()
					done := gen != mine
					mu.Unlock()
					if done {
						break
					}
					runtime.Gosched()
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < consumers; i++ {
			if err := q.Put(i); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-round:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: consumers stranded beside a non-empty queue", r)
		}
	}
	q.Close()
	wg.Wait()
}

// TestPutWaitsForRoom: a Put on a full queue waits until a Get makes
// room, and a Put still waiting when the queue closes returns ErrClosed.
func TestPutWaitsForRoom(t *testing.T) {
	q := New[int](1)
	if err := q.Put(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- q.Put(1) }()
	go func() { done <- q.Put(2) }()
	select {
	case err := <-done:
		t.Fatalf("Put on a full queue returned %v without waiting", err)
	case <-time.After(10 * time.Millisecond):
	}
	if _, ok := q.Get(); !ok {
		t.Fatal("Get failed")
	}
	if err := <-done; err != nil {
		t.Fatalf("Put released by a Get = %v", err)
	}
	q.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Put released by Close = %v, want ErrClosed", err)
	}
}
