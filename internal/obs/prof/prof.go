// Package prof is SDNShield's continuous profiler: a background sampler
// capturing delta CPU/heap/mutex/block pprof profiles into a bounded
// on-disk ring (-prof-dir on the CLIs). Captures fire on a periodic
// cadence, on demand (/prof?capture=1), and whenever the diagnostic
// bundler records an automatic trigger — an anomaly flag, SLO breach,
// quota breach or quarantine — so the profile of the misbehaving window
// joins the evidence in the next /debug/bundle.
//
// Each capture is one subdirectory <dir>/<id>/ holding cpu.pprof (a
// windowed CPU profile), heap.pprof, allocs.pprof, mutex.pprof,
// block.pprof and meta.json carrying the capture's reason plus the Go
// runtime's numeric deltas over the CPU window (the "delta" part: what
// changed while the profile ran, not cumulative-since-boot noise). The
// ring keeps the newest MaxCaptures and deletes the oldest beyond that.
package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/recorder"
)

// Config tunes a Profiler.
type Config struct {
	// Dir is the on-disk capture ring. Required.
	Dir string
	// Interval is the periodic background capture cadence; 0 means the
	// default (60s), negative disables periodic captures (trigger- and
	// demand-driven only).
	Interval time.Duration
	// CPUWindow is how long each capture's CPU profile runs (and the
	// delta window for the runtime stats). Default 2s.
	CPUWindow time.Duration
	// MaxCaptures bounds the on-disk ring. Default 16.
	MaxCaptures int
}

// The mutex and block profile rates held for a profiler's lifetime:
// mutexFraction is passed to runtime.SetMutexProfileFraction (the
// previous fraction is restored on Stop), blockRate in ns to
// runtime.SetBlockProfileRate (turned off again on Stop).
const (
	mutexFraction = 16
	blockRate     = int(time.Millisecond)
)

func (c *Config) fill() error {
	if c.Dir == "" {
		return fmt.Errorf("prof: Config.Dir is required")
	}
	if c.Interval == 0 {
		c.Interval = 60 * time.Second
	}
	if c.CPUWindow <= 0 {
		c.CPUWindow = 2 * time.Second
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 16
	}
	return nil
}

// RuntimeDelta is what changed in the Go runtime over the capture
// window.
type RuntimeDelta struct {
	WindowNs        int64  `json:"window_ns"`
	HeapAllocBytes  int64  `json:"heap_alloc_bytes_delta"`
	TotalAllocBytes uint64 `json:"alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	GCCycles        uint32 `json:"gc_cycles"`
	GCPauseNs       uint64 `json:"gc_pause_ns"`
	Goroutines      int    `json:"goroutines_delta"`
}

// Capture describes one completed profile capture.
type Capture struct {
	ID     string    `json:"id"`
	Time   time.Time `json:"time"`
	Reason string    `json:"reason"`
	App    string    `json:"app,omitempty"`
	Corr   uint64    `json:"corr,omitempty"`
	// Files maps profile file names to their sizes in bytes.
	Files map[string]int64 `json:"files"`
	Delta RuntimeDelta     `json:"delta"`
}

// Profiler owns the capture ring. One CPU profile can run per process;
// concurrent capture requests beyond the running one are dropped and
// counted (Skipped).
type Profiler struct {
	cfg Config

	mu     sync.Mutex
	recent []Capture // newest last
	seq    uint64

	capturing atomic.Bool
	skipped   atomic.Uint64
	errs      atomic.Uint64

	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
	unhook    func()
	prevMutex int
}

// def is the process-wide profiler behind /prof and the bundle section.
var def atomic.Pointer[Profiler]

// Default returns the running process-wide profiler, nil when none.
func Default() *Profiler { return def.Load() }

// Start builds a profiler over cfg.Dir, wires it into the diagnostic
// bundler (bundle Profiles section + automatic trigger joins) and starts
// the periodic capture loop. The newest Start owns the process-wide
// /prof surface until its Stop.
func Start(cfg Config) (*Profiler, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	p := &Profiler{cfg: cfg, stopCh: make(chan struct{})}
	p.prevMutex = runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRate)
	p.loadExisting()
	def.Store(p)
	recorder.SetProfilesProvider(func() interface{} { return p.Recent() })
	unhookCapture := recorder.OnCapture(func(trigger recorder.Trigger, app string, corr uint64, detail string) {
		if trigger == recorder.TriggerManual {
			return
		}
		// The bundler capture path must not stall on a CPU window.
		go func() {
			_, _ = p.capture(string(trigger), app, corr)
		}()
	})
	p.unhook = func() {
		unhookCapture()
		recorder.SetProfilesProvider(nil)
	}
	if cfg.Interval > 0 {
		p.wg.Add(1)
		go p.loop()
	}
	return p, nil
}

// Stop halts the periodic loop, detaches the bundler hooks and restores
// the mutex/block profile rates. Captured files stay on disk.
func (p *Profiler) Stop() {
	p.stopOnce.Do(func() {
		close(p.stopCh)
		p.wg.Wait()
		if p.unhook != nil {
			p.unhook()
		}
		runtime.SetMutexProfileFraction(p.prevMutex)
		runtime.SetBlockProfileRate(0)
		def.CompareAndSwap(p, nil)
	})
}

func (p *Profiler) loop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
			_, _ = p.capture("periodic", "", 0)
		}
	}
}

// CaptureNow takes a capture on demand (the /prof?capture=1 path).
func (p *Profiler) CaptureNow(reason string) (*Capture, error) {
	if reason == "" {
		reason = "manual"
	}
	return p.capture(reason, "", 0)
}

// ErrBusy reports that a capture was skipped because one is running.
var ErrBusy = fmt.Errorf("prof: capture already in progress")

func (p *Profiler) capture(reason, app string, corr uint64) (*Capture, error) {
	if !p.capturing.CompareAndSwap(false, true) {
		p.skipped.Add(1)
		return nil, ErrBusy
	}
	defer p.capturing.Store(false)

	now := time.Now()
	p.mu.Lock()
	p.seq++
	id := "p" + strconv.FormatUint(p.seq, 10) + "-" + strconv.FormatInt(now.UnixNano(), 36)
	p.mu.Unlock()
	dir := filepath.Join(p.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		p.errs.Add(1)
		return nil, err
	}

	c := Capture{ID: id, Time: now, Reason: reason, App: app, Corr: corr, Files: make(map[string]int64)}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gBefore := runtime.NumGoroutine()

	cpuPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(cpuPath)
	if err != nil {
		p.errs.Add(1)
		return nil, err
	}
	start := time.Now()
	cpuErr := pprof.StartCPUProfile(f)
	if cpuErr == nil {
		// Sleep the window out unless Stop is racing us.
		select {
		case <-time.After(p.cfg.CPUWindow):
		case <-p.stopCh:
		}
		pprof.StopCPUProfile()
	}
	window := time.Since(start)
	_ = f.Close()
	if cpuErr != nil {
		// Another CPU profile (e.g. /debug/pprof/profile) is running;
		// keep the heap/mutex/block part of the capture.
		_ = os.Remove(cpuPath)
	} else if fi, err := os.Stat(cpuPath); err == nil {
		c.Files["cpu.pprof"] = fi.Size()
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	c.Delta = RuntimeDelta{
		WindowNs:        window.Nanoseconds(),
		HeapAllocBytes:  int64(after.HeapAlloc) - int64(before.HeapAlloc),
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:         after.Mallocs - before.Mallocs,
		GCCycles:        after.NumGC - before.NumGC,
		GCPauseNs:       after.PauseTotalNs - before.PauseTotalNs,
		Goroutines:      runtime.NumGoroutine() - gBefore,
	}

	for _, name := range []string{"heap", "allocs", "mutex", "block"} {
		lp := pprof.Lookup(name)
		if lp == nil {
			continue
		}
		path := filepath.Join(dir, name+".pprof")
		pf, err := os.Create(path)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		werr := lp.WriteTo(pf, 0)
		_ = pf.Close()
		if werr != nil {
			p.errs.Add(1)
			_ = os.Remove(path)
			continue
		}
		if fi, err := os.Stat(path); err == nil {
			c.Files[name+".pprof"] = fi.Size()
		}
	}

	if data, err := json.MarshalIndent(c, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(dir, "meta.json"), append(data, '\n'), 0o644)
	}

	p.mu.Lock()
	p.recent = append(p.recent, c)
	evict := len(p.recent) - p.cfg.MaxCaptures
	var old []string
	if evict > 0 {
		for _, c := range p.recent[:evict] {
			old = append(old, c.ID)
		}
		p.recent = append([]Capture(nil), p.recent[evict:]...)
	}
	p.mu.Unlock()
	for _, oldID := range old {
		_ = os.RemoveAll(filepath.Join(p.cfg.Dir, oldID))
	}
	mCaptures.Inc()
	return &c, nil
}

// loadExisting rebuilds the capture index from meta.json files left by a
// previous run, so the ring bound holds across restarts.
func (p *Profiler) loadExisting() {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return
	}
	var caps []Capture
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(p.cfg.Dir, e.Name(), "meta.json"))
		if err != nil {
			continue
		}
		var c Capture
		if json.Unmarshal(data, &c) == nil && c.ID == e.Name() {
			caps = append(caps, c)
		}
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Time.Before(caps[j].Time) })
	if len(caps) > p.cfg.MaxCaptures {
		for _, c := range caps[:len(caps)-p.cfg.MaxCaptures] {
			_ = os.RemoveAll(filepath.Join(p.cfg.Dir, c.ID))
		}
		caps = caps[len(caps)-p.cfg.MaxCaptures:]
	}
	p.mu.Lock()
	p.recent = caps
	p.mu.Unlock()
}

// Recent lists retained captures, newest first.
func (p *Profiler) Recent() []Capture {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Capture, 0, len(p.recent))
	for i := len(p.recent) - 1; i >= 0; i-- {
		out = append(out, p.recent[i])
	}
	return out
}

// Lookup returns a retained capture by ID.
func (p *Profiler) Lookup(id string) (Capture, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.recent {
		if c.ID == id {
			return c, true
		}
	}
	return Capture{}, false
}

// Dir returns the capture ring directory.
func (p *Profiler) Dir() string { return p.cfg.Dir }

// Skipped reports captures dropped because one was already running.
func (p *Profiler) Skipped() uint64 { return p.skipped.Load() }

// Errors reports file-level capture errors.
func (p *Profiler) Errors() uint64 { return p.errs.Load() }

var mCaptures = obs.Default().Counter("sdnshield_prof_captures_total",
	"Completed continuous-profiler captures.")
