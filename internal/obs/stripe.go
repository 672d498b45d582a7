package obs

import _ "unsafe" // for go:linkname

// procPin and procUnpin are the runtime pair sync.Pool uses to find its
// per-P slot: procPin disables preemption and returns the index of the
// caller's P, procUnpin re-enables it. The runtime keeps both linkable
// (go.dev/issue/67401).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Stripe is the stripe hint of every sharded structure in the repo: the
// index of the caller's P, Go's per-CPU scheduler slot, in [0,
// GOMAXPROCS). Goroutines running at the same instant run on distinct
// Ps, so they pick distinct stripes, and one P's stripe stays warm in
// its CPU's cache whichever goroutine it runs. It is only a hint: the
// caller may migrate right after reading it, so every striped structure
// still guards its stripes with locks or atomics, and masks the index to
// its own stripe count (GOMAXPROCS may have grown since it was sized).
func Stripe() int {
	p := procPin()
	procUnpin()
	return p
}
