package span

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sdnshield/internal/obs"
)

func TestContextStringParseRoundTrip(t *testing.T) {
	c := Context{TraceID: 9001, SpanID: 7, Parent: 3}
	got, ok := Parse(c.String())
	if !ok || got != c {
		t.Fatalf("Parse(%q) = (%+v, %v), want (%+v, true)", c.String(), got, ok, c)
	}
	// Whitespace from a hand-set header is tolerated.
	if got, ok := Parse("  12-34-0 \n"); !ok || got != (Context{TraceID: 12, SpanID: 34}) {
		t.Fatalf("Parse with whitespace = (%+v, %v)", got, ok)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"",            // missing header
		"1-2",         // too few fields
		"1-2-3-4",     // too many fields
		"a-b-c",       // not numbers
		"1-2-",        // empty field
		"0-1-2",       // zero trace ID is "not traced"
		"-1-2-3",      // negative
		"1-2-3 extra", // trailing junk
	} {
		if c, ok := Parse(s); ok || c.Valid() {
			t.Errorf("Parse(%q) = (%+v, %v), want rejection", s, c, ok)
		}
	}
}

// TestNilSpanSafe proves the no-op contract: every constructor that
// declines to trace returns nil, and every method is safe on nil, so
// call sites never branch on sampling.
func TestNilSpanSafe(t *testing.T) {
	if sp := Root(0, "zero"); sp != nil {
		t.Fatal("Root(0, ...) should refuse to trace")
	}
	if sp := Start(Context{}, "orphan"); sp != nil {
		t.Fatal("Start with invalid parent should refuse to trace")
	}
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if sp := Root(77, "disabled"); sp != nil {
		t.Fatal("Root with the layer off should refuse to trace")
	}
	var sp *Span
	if c := sp.Context(); c.Valid() {
		t.Fatalf("nil span Context = %+v, want zero", c)
	}
	sp.Annotate("ignored")
	sp.End()
	Add(Context{}, "noop", time.Now(), time.Millisecond)
}

func collect(c *Collector, traceID, spanID uint64, name string, start time.Time) {
	c.Collect(Record{TraceID: traceID, SpanID: spanID, Name: name, Start: start})
}

func TestCollectorEvictsOldestTrace(t *testing.T) {
	c := NewCollector(2, 8)
	now := time.Now()
	collect(c, 1, 1, "a", now)
	collect(c, 2, 2, "b", now)
	collect(c, 3, 3, "c", now) // evicts trace 1
	if got := c.Trace(1); got != nil {
		t.Fatalf("evicted trace 1 still retained: %+v", got)
	}
	if c.Trace(2) == nil || c.Trace(3) == nil {
		t.Fatal("traces 2 and 3 should survive eviction")
	}
	ids := c.TraceIDs()
	if len(ids) != 2 || ids[0].TraceID != 3 || ids[1].TraceID != 2 {
		t.Fatalf("TraceIDs = %+v, want newest-first [3, 2]", ids)
	}
}

func TestCollectorDropsSpansOfFullTrace(t *testing.T) {
	c := NewCollector(4, 2)
	now := time.Now()
	for i := uint64(1); i <= 5; i++ {
		collect(c, 9, i, "s", now)
	}
	if got := len(c.Trace(9)); got != 2 {
		t.Fatalf("full trace retained %d spans, want 2", got)
	}
	if got := c.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

func TestTraceSortedByStart(t *testing.T) {
	c := NewCollector(4, 8)
	base := time.Now()
	// Collected out of order; Trace must sort by start, span ID on ties.
	collect(c, 5, 30, "third", base.Add(2*time.Second))
	collect(c, 5, 10, "first", base)
	collect(c, 5, 21, "tie-b", base.Add(time.Second))
	collect(c, 5, 20, "tie-a", base.Add(time.Second))
	got := c.Trace(5)
	want := []string{"first", "tie-a", "tie-b", "third"}
	if len(got) != len(want) {
		t.Fatalf("Trace retained %d spans, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("Trace[%d] = %q, want %q (full: %+v)", i, got[i].Name, name, got)
		}
	}
}

type captureSink struct{ recs []Record }

func (s *captureSink) Write(r Record) error { s.recs = append(s.recs, r); return nil }

func TestCollectorForwardsToSink(t *testing.T) {
	c := NewCollector(2, 2)
	sink := &captureSink{}
	c.SetSink(sink)
	collect(c, 1, 1, "exported", time.Now())
	if len(sink.recs) != 1 || sink.recs[0].Name != "exported" {
		t.Fatalf("sink received %+v", sink.recs)
	}
	c.SetSink(nil)
	collect(c, 1, 2, "after-detach", time.Now())
	if len(sink.recs) != 1 {
		t.Fatalf("detached sink still receiving: %+v", sink.recs)
	}
}

func TestFileSinkJSONLAndRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	s, err := obs.NewFileSink[Record](path, 256)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{TraceID: 42, SpanID: 1, Name: "sink-span", Start: time.Now(), Duration: time.Millisecond}
	for i := 0; i < 5; i++ {
		rec.SpanID = uint64(i + 1)
		if err := s.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(rec); err == nil {
		t.Fatal("Write after Close should fail")
	}
	// Rotation kicked in (each line is ~130 bytes against a 256 budget).
	// Only one prior generation is kept, so not all five records
	// survive — but both files must hold decodable Records, and the
	// newest write must be in the live file.
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	lines, lastID := 0, uint64(0)
	for _, p := range []string{path + ".1", path} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var got Record
			if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
				t.Fatalf("%s line %d: %v", p, lines, err)
			}
			if got.TraceID != 42 || got.Name != "sink-span" {
				t.Fatalf("%s holds stray record %+v", p, got)
			}
			lines++
			lastID = got.SpanID
		}
		f.Close()
	}
	if lines < 2 {
		t.Fatalf("sink files hold %d records, want >= 2 across the rotation", lines)
	}
	if lastID != 5 {
		t.Fatalf("live sink file ends at span %d, want the newest write 5", lastID)
	}
}
