package audit

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkJournalEmit is the producer side as the mediated call sees
// it: two emitters into a started journal whose drain feeds a denial
// detector, as the process-wide journal does. Read drops/op beside
// ns/op: a dropped event costs less than a kept one, so a low ns/op at a
// high drop rate measures the drop, not the journal (make bench runs it
// at 1, 2 and 4 procs).
func BenchmarkJournalEmit(b *testing.B) {
	j := NewJournal(JournalConfig{})
	NewDetector().register(j)
	j.Start()
	defer j.Stop()
	const emitters = 2
	ev := Event{Kind: KindPermission, Verdict: VerdictAllow, App: "bench", Token: "insert_flow", Op: "insert_flow"}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		n := b.N / emitters
		if g == 0 {
			n += b.N % emitters
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j.Emit(ev)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	j.Flush()
	b.ReportMetric(float64(j.Drops())/float64(b.N), "drops/op")
}

// BenchmarkJournalDrain times one DrainNow over a batch spread across
// 2, 4 or 8 shards whose runs interleave in Seq, as concurrent emitters
// leave them. The merge is linear, so ns/event stays flat as the batch
// grows.
func BenchmarkJournalDrain(b *testing.B) {
	for _, runs := range []int{2, 4, 8} {
		for _, batch := range []int{64, 512, 2048} {
			b.Run(fmt.Sprintf("runs=%d/batch=%d", runs, batch), func(b *testing.B) {
				j := NewJournal(JournalConfig{Shards: runs, ShardBuffer: batch, History: 8192})
				NewDetector().register(j)
				// Shard i holds seqs i+1, i+1+runs, ...: every run
				// interleaves with every other one.
				tmpl := make([][]Event, runs)
				for s := 0; s < batch; s++ {
					tmpl[s%runs] = append(tmpl[s%runs], Event{
						Seq: uint64(s + 1), Kind: KindPermission, Verdict: VerdictAllow, App: "bench", Tenant: "t",
					})
				}
				fill := func() {
					for i := range j.shards {
						j.shards[i].buf = append(j.shards[i].buf[:0], tmpl[i]...)
					}
				}
				fill()
				j.DrainNow() // both buffers of every shard reach their size
				fill()
				j.DrainNow()
				b.ReportAllocs()
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					fill()
					start := time.Now()
					j.DrainNow()
					spent += time.Since(start)
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*batch), "ns/event")
			})
		}
	}
}
