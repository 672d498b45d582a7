package audit

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdnshield/internal/obs"
)

func TestFileSinkWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	s, err := obs.NewFileSink[Event](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Seq: 1, Kind: KindPermission, Verdict: VerdictDeny, App: "mal", Corr: 9, Detail: "token not granted"},
		{Seq: 2, Kind: KindFlowMod, Verdict: VerdictSent, App: "mal", Corr: 9, DPID: 3},
	}
	for _, ev := range events {
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var got []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].Detail != "token not granted" || got[1].DPID != 3 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestFileSinkRotatesAtSizeBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	s, err := obs.NewFileSink[Event](path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Write(Event{Seq: uint64(i + 1), Kind: KindFault, Verdict: VerdictInjected, Detail: "drop"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Rotations() == 0 {
		t.Fatal("expected at least one rotation")
	}
	for _, p := range []string{path, path + ".1"} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		// A single line may overflow the bound slightly; 2× is the cap.
		if st.Size() > 512 {
			t.Fatalf("%s is %d bytes, bound 256", p, st.Size())
		}
	}
}

func TestFileSinkWriteAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	s, err := obs.NewFileSink[Event](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(Event{Kind: KindFault}); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestJournalSinkIntegration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	s, err := obs.NewFileSink[Event](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(JournalConfig{})
	j.AttachSink(s)
	j.Emit(Event{Kind: KindApp, Verdict: VerdictQuarantine, App: "mal"})
	j.DrainNow()
	j.DetachSink()
	j.Emit(Event{Kind: KindApp, Verdict: VerdictRestart, App: "mal"})
	j.DrainNow()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, `"quarantine"`) {
		t.Fatalf("sink missing attached-phase event: %q", text)
	}
	if strings.Contains(text, `"restart"`) {
		t.Fatalf("sink received event after detach: %q", text)
	}
}
