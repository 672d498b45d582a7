package obs

import (
	"runtime"
	"sync"
	"testing"
)

// TestStripeStaysBelowGOMAXPROCS reads the stripe from many more
// goroutines than there are Ps: every read names a P, so it lies in
// [0, GOMAXPROCS).
func TestStripeStaysBelowGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	const goroutines = 64
	lo, hi := make([]int, goroutines), make([]int, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo[g], hi[g] = procs, -1
			for i := 0; i < 1000; i++ {
				s := Stripe()
				lo[g], hi[g] = min(lo[g], s), max(hi[g], s)
				if i%100 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if lo[g] < 0 || hi[g] >= procs {
			t.Fatalf("goroutine %d read stripes in [%d, %d], want [0, %d)", g, lo[g], hi[g], procs)
		}
	}
}
