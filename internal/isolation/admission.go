package isolation

import "sync/atomic"

// admission is the KSD slot pool in one atomic word: a stopped bit, the
// count of callers waiting for a slot and the count of slots held. A call
// takes a free slot with one compare-and-swap and gives it back with one,
// so calls of independent app threads share no lock on the way in or out.
// Only a call that finds every slot held parks, on wake, and a leaving
// holder hands its slot straight to a waiter: the holder count stays, the
// waiter count drops and one token goes into wake. Parked callers are
// woken in the order they parked, as the channel's receive queue is FIFO.
//
// While any caller waits every slot is held — a caller waits only when
// they all are, and a slot is released only when no one waits — so free
// slots never sit beside waiting callers. The tokens in wake are slots
// handed over but not yet taken, at most the slot count, so a hand-off
// never blocks.
type admission struct {
	word    atomic.Uint64
	slots   uint64
	wake    chan struct{} // a slot handed to a parked waiter
	drained chan struct{} // closed once a stopped word empties
}

const (
	admStopped uint64 = 1 << 63
	admWaiter  uint64 = 1 << 32                // one waiting caller
	admHeld           = admWaiter - 1          // the slot-holder count's bits
	admWaiting        = admStopped - admWaiter // the waiter count's bits
)

func newAdmission(slots int) *admission {
	return &admission{
		slots:   uint64(slots),
		wake:    make(chan struct{}, slots),
		drained: make(chan struct{}),
	}
}

// enter takes a slot for one call, waiting for one while all are held. It
// reports false, holding nothing, once the pool is stopped; a caller
// already waiting when it stops still gets its slot.
func (a *admission) enter() bool {
	for {
		w := a.word.Load()
		switch {
		case w&admStopped != 0:
			return false
		case w&admHeld < a.slots:
			if a.word.CompareAndSwap(w, w+1) {
				return true
			}
		default:
			if a.word.CompareAndSwap(w, w+admWaiter) {
				mKSDQueueDepth.Set(waiters(w + admWaiter))
				<-a.wake
				return true
			}
		}
	}
}

// leave gives back the caller's slot: to the longest waiter if any waits,
// else to the pool. The last holder to leave a stopped pool closes
// drained.
func (a *admission) leave() {
	for {
		w := a.word.Load()
		if w&admWaiting != 0 {
			if a.word.CompareAndSwap(w, w-admWaiter) {
				mKSDQueueDepth.Set(waiters(w - admWaiter))
				a.wake <- struct{}{}
				return
			}
			continue
		}
		if a.word.CompareAndSwap(w, w-1) {
			if w-1 == admStopped {
				close(a.drained)
			}
			return
		}
	}
}

// stop sets the stopped bit, so no call enters any more; it reports false
// if the pool was stopped already. The word reaches exactly admStopped
// once — here, or on the last leave — and drained is closed there.
func (a *admission) stop() bool {
	for {
		w := a.word.Load()
		if w&admStopped != 0 {
			return false
		}
		if a.word.CompareAndSwap(w, w|admStopped) {
			if w == 0 {
				close(a.drained)
			}
			return true
		}
	}
}

// wait returns once a stopped pool has drained: every call that entered,
// the ones that were waiting when it stopped included, has left.
func (a *admission) wait() { <-a.drained }

// stopped reports whether the pool is stopped.
func (a *admission) stopped() bool { return a.word.Load()&admStopped != 0 }

// waiting is the number of callers waiting for a slot.
func (a *admission) waiting() int { return int(waiters(a.word.Load())) }

// waiters reads the waiter count out of a word.
func waiters(w uint64) int64 { return int64((w & admWaiting) >> 32) }
