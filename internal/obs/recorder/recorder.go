// Package recorder is SDNShield's black-box flight recorder: an
// always-on, lock-sharded, bounded ring of compact binary frames — one
// per mediated call, kernel op, supervisor transition, quota breach and
// audit anomaly. Where obs aggregates (counters, histograms) and
// obs/span traces a sample (1 in N), the recorder keeps the recent past
// *unsampled*: when something fires, the frames leading up to it are
// already in memory, and a diagnostic bundle (bundle.go) snapshots them
// together with metrics, health, per-app resource usage and the audit
// tail into one correlated JSON document.
//
// The hot path is built to the same 5% overhead budget as obs and
// audit (BenchmarkMediatedCallRecorderOn/Off at the repo root): a
// frame is a few words, app and op names are interned up front into
// 32-bit symbols so recording never hashes a string, the ring is
// striped round-robin across cache-padded shards by sequence number,
// and timestamps reuse clock reads the caller already took.
//
// recorder imports only obs and obs/audit; the isolation layer, the
// controller kernel and the CLIs import recorder, never the reverse.
package recorder

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a frame by the subsystem event it records.
type Kind uint8

// Frame kinds.
const (
	// KindMediatedCall is one app API call crossing the isolation
	// boundary (Op = mediated op, Dur = execution time, Arg = KSD queue
	// residency in nanoseconds).
	KindMediatedCall Kind = 1 + iota
	// KindKernelOp is a kernel operation reaching the wire (Op = wire
	// op, Arg = DPID).
	KindKernelOp
	// KindSupervisor is an app lifecycle transition (panic, restart,
	// quarantine).
	KindSupervisor
	// KindAnomaly is a denial-rate anomaly flag from the audit
	// detector.
	KindAnomaly
	// KindQuota is a soft resource-quota breach (Op = budget
	// dimension, Arg = observed value).
	KindQuota
)

// String names the kind for JSON snapshots.
func (k Kind) String() string {
	switch k {
	case KindMediatedCall:
		return "mediated_call"
	case KindKernelOp:
		return "kernel_op"
	case KindSupervisor:
		return "supervisor"
	case KindAnomaly:
		return "anomaly"
	case KindQuota:
		return "quota"
	default:
		return "unknown"
	}
}

// Code is a frame's compact outcome.
type Code uint8

// Frame codes.
const (
	CodeOK Code = iota
	CodeDenied
	CodeError
	CodePanic
	CodeRestart
	CodeQuarantine
	CodeBreach
	CodeFlagged
)

// String names the code for JSON snapshots.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeDenied:
		return "denied"
	case CodeError:
		return "error"
	case CodePanic:
		return "panic"
	case CodeRestart:
		return "restart"
	case CodeQuarantine:
		return "quarantine"
	case CodeBreach:
		return "breach"
	case CodeFlagged:
		return "flagged"
	default:
		return "unknown"
	}
}

// ---------------------------------------------------------------------------
// Symbol interning

// Sym is an interned string handle. Recording a frame stores two Syms
// instead of two string headers: the hot path never hashes, and a
// frame stays a few machine words. Sym 0 is the empty string.
type Sym uint32

var symTab = struct {
	sync.RWMutex
	byName map[string]Sym
	names  []string
}{byName: map[string]Sym{"": 0}, names: []string{""}}

// Intern returns the symbol for s, creating it on first use. Call
// sites on hot paths intern once (at app launch, at op-table build)
// and cache the Sym; Intern itself takes a read lock on the fast path.
func Intern(s string) Sym {
	symTab.RLock()
	sym, ok := symTab.byName[s]
	symTab.RUnlock()
	if ok {
		return sym
	}
	symTab.Lock()
	defer symTab.Unlock()
	if sym, ok = symTab.byName[s]; ok {
		return sym
	}
	sym = Sym(len(symTab.names))
	symTab.byName[s] = sym
	symTab.names = append(symTab.names, s)
	return sym
}

// String resolves the symbol ("" for unknown handles).
func (s Sym) String() string {
	symTab.RLock()
	defer symTab.RUnlock()
	if int(s) >= len(symTab.names) {
		return ""
	}
	return symTab.names[s]
}

// ---------------------------------------------------------------------------
// Frames

// Frame is one flight-recorder record. Fixed-size and pointer-free so
// a shard ring is a single contiguous allocation the GC never scans.
type Frame struct {
	// Seq is the global record order, stamped by Record.
	Seq uint64
	// TS is the frame's wall-clock time in Unix nanoseconds. Hot paths
	// pass a timestamp they already read; Record stamps zero values.
	TS int64
	// Dur is the event's duration in nanoseconds (mediated calls).
	Dur int64
	// Corr is the audit correlation ID tying the frame to the mediated
	// call that caused it.
	Corr uint64
	// Arg is kind-specific: KSD queue residency (mediated calls), DPID
	// (kernel ops), observed value (quota breaches).
	Arg int64
	// App and Op are interned names.
	App Sym
	Op  Sym
	// Kind and Code classify the event and its outcome.
	Kind Kind
	Code Code
}

// rshard is one stripe of the ring. The pad keeps neighbouring shard
// mutexes off each other's cache lines.
type rshard struct {
	mu     sync.Mutex
	frames []Frame
	next   int
	n      int
	_      [24]byte
}

// Recorder is the sharded bounded frame ring. Memory is fixed at
// construction: the capacity New was given × sizeof(Frame), regardless
// of how long the process runs.
type Recorder struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	// lastTS is the most recent explicit timestamp any frame carried.
	// Zero-TS frames inherit it: a clock read costs tens of nanoseconds
	// on the mediated hot path, so the unsampled majority is stamped
	// approximately (refreshed every sampled call) and ordered exactly
	// by Seq. Cold paths pass precise timestamps instead.
	lastTS atomic.Int64
	shards []rshard
	mask   uint64
}

// shardCount sizes the stripe set like obs does: parallelism rounded
// up to a power of two, capped (16 here — frames are bigger than
// counters, so the cap trades a little contention for memory).
func shardCount() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n {
		p <<= 1
	}
	if p > 16 {
		p = 16
	}
	return p
}

// defaultPerShard sizes the default recorder: it scales with the stripe
// set, so every core keeps this much history of its own.
const defaultPerShard = 2048

// New builds a recorder retaining the newest n frames in total, whatever
// the core count: the stripe set is shardCount() halved until it divides
// n, so the stripes hold n/stripes frames each and, Record being
// round-robin by sequence number, together exactly the last n. n <= 0
// selects the default, defaultPerShard frames per stripe.
func New(n int) *Recorder {
	ns := shardCount()
	if n <= 0 {
		n = defaultPerShard * ns
	}
	for n%ns != 0 {
		ns >>= 1
	}
	r := &Recorder{shards: make([]rshard, ns), mask: uint64(ns - 1)}
	for i := range r.shards {
		r.shards[i].frames = make([]Frame, n/ns)
	}
	r.enabled.Store(true)
	return r
}

// def is the process-wide recorder — always on, like obs: the whole
// point of a flight recorder is that it is already running when the
// incident happens.
var def = New(0)

// Default returns the process-wide recorder.
func Default() *Recorder { return def }

// On reports whether the default recorder is recording. Hot paths
// gate their frame construction (and any extra clock reads) on it so
// the disabled mode costs one atomic load.
func On() bool { return def.enabled.Load() }

// SetEnabled flips the default recorder's gate and returns the
// previous state.
func SetEnabled(v bool) bool { return def.enabled.Swap(v) }

// Record appends a frame to the default recorder.
func Record(f Frame) { def.Record(f) }

// Record stamps Seq and appends the frame to the stripe the sequence
// number selects (round-robin: the stripe index is a mask of a counter
// the hot path already pays for, so striping costs nothing and two
// concurrent recorders almost never share a stripe). It overwrites the
// oldest frame when full, never blocks beyond the stripe mutex and
// never allocates. Zero-TS frames are stamped with the last explicit
// timestamp seen (no clock read — see Recorder.lastTS); pass TS
// yourself where precision matters.
func (r *Recorder) Record(f Frame) {
	if r == nil || !r.enabled.Load() {
		return
	}
	f.Seq = r.seq.Add(1)
	if f.TS == 0 {
		if f.TS = r.lastTS.Load(); f.TS == 0 {
			f.TS = time.Now().UnixNano()
			r.lastTS.Store(f.TS)
		}
	} else if f.TS > r.lastTS.Load() {
		r.lastTS.Store(f.TS)
	}
	sh := &r.shards[f.Seq&r.mask]
	sh.mu.Lock()
	sh.frames[sh.next] = f
	sh.next++
	if sh.next == len(sh.frames) {
		sh.next = 0
	}
	if sh.n < len(sh.frames) {
		sh.n++
	}
	sh.mu.Unlock()
}

// Recorded returns the total number of frames ever recorded (including
// ones the ring has since overwritten).
func (r *Recorder) Recorded() uint64 { return r.seq.Load() }

// Len returns the number of frames currently retained.
func (r *Recorder) Len() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

// Reset clears every shard (tests).
func (r *Recorder) Reset() {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.next, sh.n = 0, 0
		sh.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Snapshots

// FrameFilter selects frames out of a snapshot. Zero fields match
// everything.
type FrameFilter struct {
	// App keeps only frames attributed to the app.
	App string
	// Corr keeps only frames with the correlation ID.
	Corr uint64
	// Kind keeps only frames of the kind.
	Kind Kind
	// Limit keeps only the most recent N matches; 0 means all retained.
	Limit int
}

// FrameSnapshot is the resolved JSON view of one frame.
type FrameSnapshot struct {
	Seq      uint64        `json:"seq"`
	Time     time.Time     `json:"time"`
	Kind     string        `json:"kind"`
	Code     string        `json:"code"`
	App      string        `json:"app,omitempty"`
	Op       string        `json:"op,omitempty"`
	Corr     uint64        `json:"corr,omitempty"`
	Duration time.Duration `json:"duration_ns,omitempty"`
	Arg      int64         `json:"arg,omitempty"`
}

// Snapshot merges the shards into sequence order, resolves symbols and
// applies the filter, oldest first.
func (r *Recorder) Snapshot(filter FrameFilter) []FrameSnapshot {
	if r == nil {
		return nil
	}
	var appSym Sym
	if filter.App != "" {
		symTab.RLock()
		sym, ok := symTab.byName[filter.App]
		symTab.RUnlock()
		if !ok {
			return nil // never interned → never recorded
		}
		appSym = sym
	}
	var frames []Frame
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		start := sh.next - sh.n
		if start < 0 {
			start += len(sh.frames)
		}
		for k := 0; k < sh.n; k++ {
			f := &sh.frames[(start+k)%len(sh.frames)]
			if filter.App != "" && f.App != appSym {
				continue
			}
			if filter.Corr != 0 && f.Corr != filter.Corr {
				continue
			}
			if filter.Kind != 0 && f.Kind != filter.Kind {
				continue
			}
			frames = append(frames, *f)
		}
		sh.mu.Unlock()
	}
	sort.Slice(frames, func(a, b int) bool { return frames[a].Seq < frames[b].Seq })
	if filter.Limit > 0 && len(frames) > filter.Limit {
		frames = frames[len(frames)-filter.Limit:]
	}
	out := make([]FrameSnapshot, len(frames))
	for i, f := range frames {
		out[i] = FrameSnapshot{
			Seq:      f.Seq,
			Time:     time.Unix(0, f.TS),
			Kind:     f.Kind.String(),
			Code:     f.Code.String(),
			App:      f.App.String(),
			Op:       f.Op.String(),
			Corr:     f.Corr,
			Duration: time.Duration(f.Dur),
			Arg:      f.Arg,
		}
	}
	return out
}
