package recorder

import (
	"sync"
	"testing"
	"time"
)

func TestInternRoundTripsAndDedupes(t *testing.T) {
	a := Intern("app-a")
	b := Intern("op-x")
	if a == b {
		t.Fatal("distinct strings share a symbol")
	}
	if Intern("app-a") != a {
		t.Fatal("re-interning yields a new symbol")
	}
	if a.String() != "app-a" || b.String() != "op-x" {
		t.Fatalf("resolve: %q %q", a.String(), b.String())
	}
	if s := Sym(0).String(); s != "" {
		t.Fatalf("zero symbol = %q, want empty", s)
	}
	if s := Sym(1 << 30).String(); s != "" {
		t.Fatalf("unknown symbol = %q, want empty", s)
	}
}

func TestRecorderRetainsAndFilters(t *testing.T) {
	r := New(64)
	app1, app2 := Intern("fw"), Intern("lb")
	opRead, opInsert := Intern("switches"), Intern("insert_flow")
	base := time.Now().UnixNano()
	r.Record(Frame{TS: base, Kind: KindMediatedCall, Code: CodeOK, App: app1, Op: opRead, Corr: 11, Dur: 1500})
	r.Record(Frame{TS: base + 1, Kind: KindMediatedCall, Code: CodeDenied, App: app2, Op: opInsert, Corr: 12})
	r.Record(Frame{TS: base + 2, Kind: KindKernelOp, Code: CodeOK, App: app1, Op: opInsert, Corr: 11, Arg: 7})
	r.Record(Frame{TS: base + 3, Kind: KindQuota, Code: CodeBreach, App: app1, Op: Intern("cpu_ms_per_sec"), Arg: 900})

	all := r.Snapshot(FrameFilter{})
	if len(all) != 4 {
		t.Fatalf("retained %d frames, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatal("snapshot not in sequence order")
		}
	}

	byApp := r.Snapshot(FrameFilter{App: "fw"})
	if len(byApp) != 3 {
		t.Fatalf("app filter kept %d, want 3", len(byApp))
	}
	byCorr := r.Snapshot(FrameFilter{Corr: 11})
	if len(byCorr) != 2 || byCorr[0].Kind != "mediated_call" || byCorr[1].Kind != "kernel_op" {
		t.Fatalf("corr filter = %+v", byCorr)
	}
	if byCorr[1].Arg != 7 {
		t.Fatalf("kernel frame arg (dpid) = %d", byCorr[1].Arg)
	}
	byKind := r.Snapshot(FrameFilter{Kind: KindQuota})
	if len(byKind) != 1 || byKind[0].Code != "breach" || byKind[0].Op != "cpu_ms_per_sec" {
		t.Fatalf("kind filter = %+v", byKind)
	}
	limited := r.Snapshot(FrameFilter{Limit: 2})
	if len(limited) != 2 || limited[1].Kind != "quota" {
		t.Fatalf("limit filter = %+v", limited)
	}
	if got := r.Snapshot(FrameFilter{App: "never-seen"}); got != nil {
		t.Fatalf("unknown app matched %d frames", len(got))
	}
	if r.Snapshot(FrameFilter{})[0].Duration != 1500*time.Nanosecond {
		t.Fatal("duration not resolved")
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := New(8) // in total, across however many stripes this machine has
	app := Intern("churn")
	for i := 0; i < 100; i++ {
		r.Record(Frame{Kind: KindMediatedCall, App: app})
	}
	if r.Recorded() != 100 {
		t.Fatalf("recorded = %d, want 100", r.Recorded())
	}
	got := r.Snapshot(FrameFilter{App: "churn"})
	if len(got) != 8 {
		t.Fatalf("ring kept %d frames, want 8", len(got))
	}
	// The retained frames are the newest ones.
	if got[len(got)-1].Seq != 100 {
		t.Fatalf("newest retained seq = %d, want 100", got[len(got)-1].Seq)
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
}

func TestRecorderDisabledGateSkipsFrames(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if On() {
		t.Fatal("On() true after disable")
	}
	before := def.Recorded()
	Record(Frame{Kind: KindSupervisor, App: Intern("gated")})
	if def.Recorded() != before {
		t.Fatal("disabled recorder accepted a frame")
	}
}

func TestRecorderConcurrentRecordSnapshot(t *testing.T) {
	r := New(256)
	const workers = 8
	const perWorker = 500
	apps := make([]Sym, workers)
	for i := range apps {
		apps[i] = Intern("w" + string(rune('0'+i)))
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, f := range r.Snapshot(FrameFilter{Limit: 64}) {
					if f.Kind == "unknown" || f.Time.IsZero() {
						t.Errorf("torn frame: %+v", f)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(app Sym) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				r.Record(Frame{Kind: KindMediatedCall, Code: CodeOK, App: app, Corr: uint64(i + 1)})
			}
		}(apps[w])
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Recorded() != workers*perWorker {
		t.Fatalf("recorded = %d, want %d", r.Recorded(), workers*perWorker)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := New(2048)
	app, op := Intern("bench"), Intern("switches")
	now := time.Now().UnixNano()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(Frame{TS: now, Kind: KindMediatedCall, Code: CodeOK, App: app, Op: op, Corr: 1, Dur: 1000})
		}
	})
}

func BenchmarkRecordDisabled(b *testing.B) {
	r := New(2048)
	r.enabled.Store(false)
	app, op := Intern("bench"), Intern("switches")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Frame{Kind: KindMediatedCall, App: app, Op: op})
	}
}
