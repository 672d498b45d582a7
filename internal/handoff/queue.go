// Package handoff is the bounded FIFO that passes messages and events
// between goroutines: the two directions of an in-memory OpenFlow pipe
// and an app container's event queue.
//
// A Queue is a mutex-guarded ring. A consumer that finds it empty parks
// on one capacity-1 wake channel, a producer that finds it full on one
// more, and Close wakes both kinds by closing the two channels. So a
// parked goroutine waits on exactly one channel, and a hand-off costs a
// lock, a ring slot and, only when the other side is parked, one wake —
// where a select over the data channel and a stop channel pays the
// select's locking on every message.
package handoff

import (
	"errors"
	"sync"
)

var (
	// ErrClosed reports a Put or TryPut on a closed queue.
	ErrClosed = errors.New("handoff: queue closed")
	// ErrFull reports a TryPut on a full queue.
	ErrFull = errors.New("handoff: queue full")
)

// Queue is a bounded FIFO safe for any number of producers and
// consumers. Values leave in the order they were put; a consumer that
// leaves values behind for another parked consumer passes the wake on,
// so a burst is never stranded behind a single wake-up.
type Queue[T any] struct {
	mu      sync.Mutex
	buf     []T // the ring; len(buf) is the capacity
	head    int // index of the oldest value
	n       int // values queued
	closed  bool
	getters int // consumers parked, or about to park, on ready
	putters int // producers parked, or about to park, on room

	// ready and room each hold at most one pending wake. A wake may be
	// stale — its waiter finds nothing to do and parks again — but none
	// is lost: every state change that could unblock a counted waiter
	// leaves a wake in the channel. Close closes both.
	ready chan struct{}
	room  chan struct{}
}

// New returns an open queue holding at most size values (at least one).
func New[T any](size int) *Queue[T] {
	if size < 1 {
		size = 1
	}
	return &Queue[T]{
		buf:   make([]T, size),
		ready: make(chan struct{}, 1),
		room:  make(chan struct{}, 1),
	}
}

// wake leaves a wake in ch unless one is already pending. Callers hold
// q.mu with the queue open: a closed channel must never be sent to.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Put appends v, waiting while the queue is full. It returns ErrClosed,
// without queueing v, once the queue is closed, also if it closes
// while Put waits.
func (q *Queue[T]) Put(v T) error {
	q.mu.Lock()
	for q.n == len(q.buf) && !q.closed {
		q.putters++
		q.mu.Unlock()
		<-q.room
		q.mu.Lock()
		q.putters--
	}
	return q.putLocked(v)
}

// TryPut appends v if the queue has room: it returns ErrFull when the
// queue is full and ErrClosed when it is closed.
func (q *Queue[T]) TryPut(v T) error {
	q.mu.Lock()
	if q.n == len(q.buf) && !q.closed {
		q.mu.Unlock()
		return ErrFull
	}
	return q.putLocked(v)
}

// putLocked appends v to a queue with room and wakes a parked consumer;
// it passes a room wake on while room remains. It releases q.mu.
func (q *Queue[T]) putLocked(v T) error {
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = v
	q.n++
	if q.getters > 0 {
		wake(q.ready)
	}
	if q.putters > 0 && q.n < len(q.buf) {
		wake(q.room)
	}
	q.mu.Unlock()
	return nil
}

// Get removes and returns the oldest value, waiting while the queue is
// empty. Once the queue is closed Get still returns what was queued
// before the close, then reports false.
func (q *Queue[T]) Get() (v T, ok bool) {
	q.mu.Lock()
	for q.n == 0 {
		if q.closed {
			q.mu.Unlock()
			return v, false
		}
		q.getters++
		q.mu.Unlock()
		<-q.ready
		q.mu.Lock()
		q.getters--
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	if !q.closed {
		if q.putters > 0 {
			wake(q.room)
		}
		if q.getters > 0 && q.n > 0 {
			wake(q.ready)
		}
	}
	q.mu.Unlock()
	return v, true
}

// Close closes the queue and wakes every parked producer and consumer.
// Later Puts fail; Gets drain what is queued. Closing twice is a no-op.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ready)
	close(q.room)
}
