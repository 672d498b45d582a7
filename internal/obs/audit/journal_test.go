package audit

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestJournalDrainOrdersBySeq(t *testing.T) {
	j := NewJournal(JournalConfig{Shards: 4, ShardBuffer: 4096, History: 4096})
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow})
			}
		}()
	}
	wg.Wait()
	j.DrainNow()
	got := j.Query(Filter{})
	if len(got) != goroutines*per {
		t.Fatalf("drained %d events, want %d (drops=%d)", len(got), goroutines*per, j.Drops())
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("history out of order at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
	if j.Drops() != 0 {
		t.Fatalf("unexpected drops: %d", j.Drops())
	}
}

// TestJournalOrdersBySeqAcrossDrains runs the drain goroutine against
// concurrent emitters, so many drains cut the shards while events are
// being numbered: consumers and the history must still see Seq strictly
// ascending across batches, not only within one.
func TestJournalOrdersBySeqAcrossDrains(t *testing.T) {
	const goroutines, per = 8, 5000
	j := NewJournal(JournalConfig{Shards: 8, ShardBuffer: 4096, History: goroutines * per})
	var seen []uint64 // written by the drain goroutine only
	j.AddConsumer(func(ev Event) { seen = append(seen, ev.Seq) })
	j.Start()
	defer j.Stop()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow})
			}
		}()
	}
	wg.Wait()
	j.Flush()
	if uint64(len(seen)) != j.Emitted() {
		t.Fatalf("consumer saw %d events, journal accepted %d", len(seen), j.Emitted())
	}
	inversions := func(seqs []uint64) (n int) {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				n++
			}
		}
		return n
	}
	if n := inversions(seen); n > 0 {
		t.Errorf("consumer saw %d seq inversions across drains", n)
	}
	hist := j.Query(Filter{})
	seqs := make([]uint64, len(hist))
	for i, ev := range hist {
		seqs[i] = ev.Seq
	}
	if n := inversions(seqs); n > 0 {
		t.Errorf("history holds %d seq inversions across drains", n)
	}
}

func TestJournalBackpressureDropsInsteadOfBlocking(t *testing.T) {
	// Never started: nothing drains, so the tiny shards must overflow.
	j := NewJournal(JournalConfig{Shards: 1, ShardBuffer: 8, History: 16})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			j.Emit(Event{Kind: KindPermission, Verdict: VerdictDeny})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked under backpressure")
	}
	if j.Drops() == 0 {
		t.Fatal("expected drops on overflowed journal")
	}
	if j.Emitted()+j.Drops() != 1000 {
		t.Fatalf("emitted %d + drops %d != 1000", j.Emitted(), j.Drops())
	}
	j.DrainNow()
	if got := len(j.Query(Filter{})); got > 16 {
		t.Fatalf("history holds %d events, capacity 16", got)
	}
}

func TestJournalHistoryRingEvictsOldest(t *testing.T) {
	j := NewJournal(JournalConfig{Shards: 1, ShardBuffer: 64, History: 8})
	for i := 0; i < 20; i++ {
		j.Emit(Event{Kind: KindFault})
		j.DrainNow()
	}
	got := j.Query(Filter{})
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	if got[0].Seq != 13 || got[7].Seq != 20 {
		t.Fatalf("retained range [%d,%d], want [13,20]", got[0].Seq, got[7].Seq)
	}
}

func TestJournalQueryFilters(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow, App: "a", Corr: 7})
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictDeny, App: "a", Corr: 8})
	j.Emit(Event{Kind: KindFlowMod, Verdict: VerdictSent, App: "b", Corr: 7})
	j.DrainNow()
	if got := j.Query(Filter{App: "a"}); len(got) != 2 {
		t.Fatalf("app filter: %d, want 2", len(got))
	}
	if got := j.Query(Filter{Kind: KindFlowMod}); len(got) != 1 || got[0].App != "b" {
		t.Fatalf("kind filter mismatch: %+v", got)
	}
	if got := j.Query(Filter{Verdict: VerdictDeny}); len(got) != 1 || got[0].Corr != 8 {
		t.Fatalf("verdict filter mismatch: %+v", got)
	}
	if got := j.Query(Filter{Corr: 7}); len(got) != 2 {
		t.Fatalf("corr filter: %d, want 2", len(got))
	}
	if got := j.Query(Filter{Limit: 1}); len(got) != 1 || got[0].Kind != KindFlowMod {
		t.Fatalf("limit should keep the newest: %+v", got)
	}
	if got := j.Query(Filter{AfterSeq: 2}); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("after-seq filter mismatch: %+v", got)
	}
}

func TestJournalFlushDeliversToConsumers(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Start()
	defer j.Stop()
	var mu sync.Mutex
	var seen []uint64
	j.AddConsumer(func(ev Event) {
		mu.Lock()
		seen = append(seen, ev.Seq)
		mu.Unlock()
	})
	for i := 0; i < 50; i++ {
		j.Emit(Event{Kind: KindTx, Verdict: VerdictCommit})
	}
	j.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 50 {
		t.Fatalf("consumer saw %d events, want 50", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("consumer saw out-of-order seqs: %v", seen)
		}
	}
}

func TestJournalSetEnabledGatesEmit(t *testing.T) {
	j := NewJournal(JournalConfig{})
	if prev := j.SetEnabled(false); !prev {
		t.Fatal("journal should start enabled")
	}
	j.Emit(Event{Kind: KindFault})
	j.DrainNow()
	if got := len(j.Query(Filter{})); got != 0 {
		t.Fatalf("disabled journal accepted %d events", got)
	}
	j.SetEnabled(true)
	j.Emit(Event{Kind: KindFault})
	j.DrainNow()
	if got := len(j.Query(Filter{})); got != 1 {
		t.Fatalf("re-enabled journal has %d events, want 1", got)
	}
}

func TestJournalWaitQueryWakesOnPublish(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Start()
	defer j.Stop()
	start := j.LastSeq()
	res := make(chan []Event, 1)
	go func() { res <- j.WaitQuery(Filter{AfterSeq: start}, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	j.Emit(Event{Kind: KindSwitch, Verdict: VerdictConnect, DPID: 42})
	select {
	case got := <-res:
		if len(got) != 1 || got[0].DPID != 42 {
			t.Fatalf("long-poll returned %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitQuery never woke")
	}
	// And it must time out cleanly when nothing arrives.
	if got := j.WaitQuery(Filter{AfterSeq: j.LastSeq()}, 30*time.Millisecond); got != nil {
		t.Fatalf("expected timeout nil, got %+v", got)
	}
}

func TestNextCorrIsUniqueAndNonzero(t *testing.T) {
	a, b := NextCorr(), NextCorr()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad corr ids: %d %d", a, b)
	}
}

// TestJournalTightEmitterKeepsEveryEvent runs one emitter that never
// blocks on one P beside the drain goroutine. The emitter's notifies
// wake the drain onto the emitter's own P, where it waits for the
// emitter to yield; the emitter's pacing yield lets it run before the
// shard overflows, so none of 64 shards' worth of events is dropped.
func TestJournalTightEmitterKeepsEveryEvent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	j := NewJournal(JournalConfig{})
	j.Start()
	defer j.Stop()
	n := 64 * j.cfg.ShardBuffer
	for i := 0; i < n; i++ {
		j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow})
	}
	j.Flush()
	if d := j.Drops(); d != 0 {
		t.Fatalf("a tight emitter on one P lost %d of %d events", d, n)
	}
}

// TestJournalSpillsBeforeDropping fills the home shard of an unstarted
// journal: the next events land in the other shard, none is dropped
// until both are full, and a drain returns them all in Seq order.
func TestJournalSpillsBeforeDropping(t *testing.T) {
	// One P: the emitter's home shard is stripe 0's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const per = 16
	j := NewJournal(JournalConfig{Shards: 2, ShardBuffer: per, History: 4 * per})
	for i := 0; i < per; i++ {
		j.Emit(Event{Kind: KindFault})
	}
	if got := len(j.shards[0].buf); got != per {
		t.Fatalf("home shard holds %d events, want %d", got, per)
	}
	for i := 0; i < per; i++ {
		j.Emit(Event{Kind: KindFault})
		if d := j.Drops(); d != 0 {
			t.Fatalf("dropped %d events with the other shard holding %d of %d", d, len(j.shards[1].buf), per)
		}
	}
	if got := len(j.shards[1].buf); got != per {
		t.Fatalf("spill shard holds %d events, want %d", got, per)
	}
	j.Emit(Event{Kind: KindFault})
	if d := j.Drops(); d != 1 {
		t.Fatalf("drops = %d with both shards full, want 1", d)
	}
	j.DrainNow()
	got := j.Query(Filter{})
	if len(got) != 2*per {
		t.Fatalf("drained %d events, want %d", len(got), 2*per)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("drained event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if j.Emitted() != 2*per || j.LastSeq() != 2*per+1 {
		t.Fatalf("emitted %d of %d numbered, want %d of %d", j.Emitted(), j.LastSeq(), 2*per, 2*per+1)
	}
}
