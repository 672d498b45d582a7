package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type sinkRec struct {
	N   int    `json:"n"`
	Pad string `json:"pad,omitempty"`
}

// TestFileSinkOversizedFirstRecordKeepsRotation: a record larger than the
// bound arriving at an empty file is written to it whole; rotating the
// empty file would rename nothing over the previous <path>.1.
func TestFileSinkOversizedFirstRecordKeepsRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sink.jsonl")
	const previous = "{\"n\":0}\n"
	if err := os.WriteFile(path+".1", []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileSink[sinkRec](path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(sinkRec{N: 1, Pad: strings.Repeat("x", 100)}); err != nil {
		t.Fatal(err)
	}
	if n := s.Rotations(); n != 0 {
		t.Fatalf("an empty file was rotated %d times", n)
	}
	if got, err := os.ReadFile(path + ".1"); err != nil || string(got) != previous {
		t.Fatalf("previous rotation = %q, %v; want it kept", got, err)
	}
	// The file is over its bound now, so the next record does rotate.
	if err := s.Write(sinkRec{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.Rotations(); n != 1 {
		t.Fatalf("rotations = %d, want 1", n)
	}
	if got, _ := os.ReadFile(path + ".1"); !strings.HasPrefix(string(got), `{"n":1,`) {
		t.Fatalf("rotated file holds %q, want the oversized record", got)
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"n\":2}\n" {
		t.Fatalf("live file holds %q, want the newest record", got)
	}
}

// syncSpy records the order of Sync and Close on the sink's file.
type syncSpy struct {
	*os.File
	calls []string
}

func (f *syncSpy) Sync() error  { f.calls = append(f.calls, "sync"); return f.File.Sync() }
func (f *syncSpy) Close() error { f.calls = append(f.calls, "close"); return f.File.Close() }

// TestFileSinkCloseSyncs: Close makes what was written durable before it
// lets go of the file — the audit trail an interrupted run leaves behind
// is sealed, not merely handed to the page cache.
func TestFileSinkCloseSyncs(t *testing.T) {
	s, err := NewFileSink[sinkRec](filepath.Join(t.TempDir(), "sink.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	spy := &syncSpy{File: s.f.(*os.File)}
	s.f = spy
	if err := s.Write(sinkRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(spy.calls, ","); got != "sync,close" {
		t.Fatalf("Close did %q on the file, want sync then close", got)
	}
	if err := s.Write(sinkRec{N: 2}); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
