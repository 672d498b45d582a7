package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func openTest(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(Config{Dir: dir, Backoff: 2 * time.Millisecond, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

func TestEnqueueRunAck(t *testing.T) {
	m := openTest(t, t.TempDir())
	var got atomic.Value
	m.Handle("q", 2, func(j Snapshot) ([]byte, error) {
		got.Store(string(j.Payload))
		return []byte(`{"ok":true}`), nil
	})
	id, err := m.Enqueue("q", []byte(`{"x":1}`), WithCorr(42))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		s, ok := m.Status(id)
		return ok && s.State == StateDone
	})
	s, _ := m.Status(id)
	if s.Corr != 42 || string(s.Result) != `{"ok":true}` || s.Attempts != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got.Load().(string) != `{"x":1}` {
		t.Fatalf("payload = %q", got.Load())
	}
	// Snapshot JSON inlines the payload/result as raw JSON.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Result map[string]bool `json:"result"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil || !decoded.Result["ok"] {
		t.Fatalf("snapshot JSON = %s (err %v)", b, err)
	}
}

func TestRetryThenSuccess(t *testing.T) {
	m := openTest(t, t.TempDir())
	var calls atomic.Int32
	m.Handle("flaky", 1, func(j Snapshot) ([]byte, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("done"), nil
	})
	id, _ := m.Enqueue("flaky", nil)
	waitFor(t, "retried job done", func() bool {
		s, ok := m.Status(id)
		return ok && s.State == StateDone
	})
	s, _ := m.Status(id)
	if s.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", s.Attempts)
	}
	st := m.Stats()[0]
	if st.Retried != 2 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeadLetterAfterBudgetAndRequeue(t *testing.T) {
	m := openTest(t, t.TempDir())
	var fail atomic.Bool
	fail.Store(true)
	m.Handle("dlq", 1, func(j Snapshot) ([]byte, error) {
		if fail.Load() {
			return nil, errors.New("boom")
		}
		return []byte("recovered"), nil
	})
	id, _ := m.Enqueue("dlq", nil, WithMaxAttempts(2))
	waitFor(t, "job dead", func() bool {
		s, ok := m.Status(id)
		return ok && s.State == StateDead
	})
	s, _ := m.Status(id)
	if s.Attempts != 2 || s.Error != "boom" {
		t.Fatalf("dead snapshot = %+v", s)
	}
	if dead := m.Dead("dlq"); len(dead) != 1 || dead[0].ID != id {
		t.Fatalf("dead letter = %+v", dead)
	}
	// Requeue with the failure cleared: the job completes.
	fail.Store(false)
	if err := m.Requeue(id); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "requeued job done", func() bool {
		s, ok := m.Status(id)
		return ok && s.State == StateDone
	})
}

func TestPermanentErrorSkipsRetries(t *testing.T) {
	m := openTest(t, t.TempDir())
	var calls atomic.Int32
	m.Handle("p", 1, func(j Snapshot) ([]byte, error) {
		calls.Add(1)
		return nil, Permanent(errors.New("never"))
	})
	id, _ := m.Enqueue("p", nil)
	waitFor(t, "permanent dead", func() bool {
		s, ok := m.Status(id)
		return ok && s.State == StateDead
	})
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

func TestPanicBurnsOneAttempt(t *testing.T) {
	m := openTest(t, t.TempDir())
	var calls atomic.Int32
	m.Handle("panicky", 1, func(j Snapshot) ([]byte, error) {
		if calls.Add(1) == 1 {
			panic("handler bug")
		}
		return []byte("ok"), nil
	})
	id, _ := m.Enqueue("panicky", nil)
	waitFor(t, "post-panic done", func() bool {
		s, ok := m.Status(id)
		return ok && s.State == StateDone
	})
	if s, _ := m.Status(id); s.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", s.Attempts)
	}
}

func TestAdmissionBound(t *testing.T) {
	m, err := Open(Config{MaxDepth: 2}) // ephemeral, no workers: backlog only
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	if _, err := m.Enqueue("full", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue("full", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue("full", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats()[0]; st.Rejected != 1 || st.Pending != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCrashMidJobReplaysPending is the at-least-once proof: a worker is
// killed mid-job (no ack written) and the job comes back pending on the
// next Open of the same WAL, where it completes.
func TestCrashMidJobReplaysPending(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	block := make(chan struct{})
	m1.Handle("work", 1, func(j Snapshot) ([]byte, error) {
		close(started)
		<-block
		return []byte("should never be acked"), nil
	})
	id, err := m1.Enqueue("work", []byte("payload"), WithCorr(7))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m1.Kill()    // crash: the running job has no ack record
	close(block) // the orphaned worker finishes; its ack must be ignored

	m2, err := Open(Config{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m2.Close() })
	s, ok := m2.Status(id)
	if !ok || s.State != StatePending || s.Corr != 7 || string(s.Payload) != "payload" {
		t.Fatalf("replayed job = %+v ok=%v", s, ok)
	}
	m2.Handle("work", 1, func(j Snapshot) ([]byte, error) {
		return []byte("second run"), nil
	})
	waitFor(t, "replayed job done", func() bool {
		s, ok := m2.Status(id)
		return ok && s.State == StateDone
	})
	if s, _ := m2.Status(id); string(s.Result) != "second run" {
		t.Fatalf("result = %q", s.Result)
	}
}

// TestReplayBacklogBeforeHandle: jobs enqueued in a prior process run
// before any handler existed are executed once a handler registers.
func TestReplayBacklogBeforeHandle(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := m1.Enqueue("later", []byte(fmt.Sprintf("j%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openTest(t, dir)
	var mu sync.Mutex
	seen := map[string]bool{}
	m2.Handle("later", 3, func(j Snapshot) ([]byte, error) {
		mu.Lock()
		seen[string(j.Payload)] = true
		mu.Unlock()
		return nil, nil
	})
	waitFor(t, "backlog drained", func() bool {
		for _, id := range ids {
			if s, ok := m2.Status(id); !ok || s.State != StateDone {
				return false
			}
		}
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("seen = %v", seen)
	}
}

// TestCompactionShrinksWAL: settled history does not survive restarts in
// the log file.
func TestCompactionShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m1.Handle("c", 2, func(j Snapshot) ([]byte, error) { return []byte("r"), nil })
	for i := 0; i < 50; i++ {
		if _, err := m1.Enqueue("c", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all done", func() bool {
		st := m1.Stats()[0]
		return st.Done == 50
	})
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	m2 := openTest(t, dir)
	_ = m2
	after, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink WAL: %d -> %d", before.Size(), after.Size())
	}
	// Only the header and the tiny ID high-water meta record survive.
	if after.Size() > int64(len(walMagic))+64 {
		t.Fatalf("compacted WAL should hold only header+meta, got %d bytes", after.Size())
	}
}

// TestIDsMonotonicAcrossRestarts: compaction drops settled jobs, but
// their IDs must never be re-issued — a client polling an old
// /market/jobs/<id> URL must not observe a different job under it.
func TestIDsMonotonicAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m1.Handle("m", 1, func(j Snapshot) ([]byte, error) { return nil, nil })
	var last uint64
	for i := 0; i < 3; i++ {
		if last, err = m1.Enqueue("m", nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all done", func() bool { return m1.Stats()[0].Done == 3 })
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// First reopen compacts the settled history away; a second reopen
	// sees only the meta record. Both must keep issuing fresh IDs.
	for i := 0; i < 2; i++ {
		m, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.Enqueue("m", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id <= last {
			t.Fatalf("reopen %d re-issued ID %d (last was %d)", i, id, last)
		}
		last = id
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailThenAppendSurvivesRestart: a torn tail must be truncated
// at replay, not just skipped — otherwise records appended after it
// (O_APPEND lands them beyond the corrupt bytes) are lost on the next
// restart, silently breaking at-least-once.
func TestTornTailThenAppendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := m1.Enqueue("t", []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	// The restart tolerates the tear and keeps accepting enqueues.
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m2.Enqueue("t", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Both the pre-tear and post-tear jobs replay on the next restart.
	m3 := openTest(t, dir)
	for _, tc := range []struct {
		id      uint64
		payload string
	}{{id1, "first"}, {id2, "second"}} {
		s, ok := m3.Status(tc.id)
		if !ok || s.State != StatePending || string(s.Payload) != tc.payload {
			t.Fatalf("job %d after torn-tail restart = %+v ok=%v", tc.id, s, ok)
		}
	}
}

// TestTornTailTolerated: a torn final record (crash mid-append) is
// dropped without losing the whole records before it.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Enqueue("t", []byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage: a frame header promising more bytes than exist.
	f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	m2 := openTest(t, dir)
	if s, ok := m2.Status(id); !ok || s.State != StatePending || string(s.Payload) != "keep" {
		t.Fatalf("job after torn tail = %+v ok=%v", s, ok)
	}
}

func TestCloseDrainsInflight(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	m.Handle("drain", 1, func(j Snapshot) ([]byte, error) {
		close(started)
		<-release
		return []byte("flushed"), nil
	})
	id, _ := m.Enqueue("drain", nil)
	<-started
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case <-done:
		t.Fatal("Close returned while a job was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The in-flight job was acked before shutdown.
	if s, ok := m.Status(id); !ok || s.State != StateDone {
		t.Fatalf("drained job = %+v ok=%v", s, ok)
	}
	if _, err := m.Enqueue("drain", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close err = %v", err)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []*walRecord{
		{op: opEnqueue, id: 1, queue: "q", payload: []byte("p"), corr: 9, maxAttempts: 5, ts: 123456789},
		{op: opFail, id: 2, attempts: 3, errMsg: "boom", ts: -1},
		{op: opAck, id: 1 << 60, result: []byte(`{"a":1}`), ts: time.Now().UnixNano()},
		{op: opDead, id: 7, attempts: 5, errMsg: "gone", ts: 0},
		{op: opMeta, id: 1 << 40},
	}
	for _, r := range recs {
		got, err := decodeRecord(encodeRecord(r))
		if err != nil {
			t.Fatalf("decode(%+v): %v", r, err)
		}
		if got.op != r.op || got.id != r.id || got.queue != r.queue ||
			string(got.payload) != string(r.payload) || got.corr != r.corr ||
			got.maxAttempts != r.maxAttempts || got.attempts != r.attempts ||
			got.errMsg != r.errMsg || string(got.result) != string(r.result) || got.ts != r.ts {
			t.Fatalf("round trip: %+v != %+v", got, r)
		}
	}
	if _, err := decodeRecord(nil); err == nil {
		t.Fatal("decode(nil) succeeded")
	}
	if _, err := decodeRecord([]byte{99}); err == nil {
		t.Fatal("decode(unknown op) succeeded")
	}
}

// TestCorruptHeaderRefusesOpen: a log whose header is damaged is
// refused and left as it is, never replaced by an empty one; a file
// shorter than the header (a torn first write) still starts clean.
func TestCorruptHeaderRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Enqueue("q", []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 1
	if err := os.WriteFile(walPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), walPath(dir)) {
		if m != nil {
			_ = m.Close()
		}
		t.Fatalf("Open of a log with a flipped header bit: err = %v, want one naming %s", err, walPath(dir))
	}
	if after, err := os.ReadFile(walPath(dir)); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("refused log was changed (err %v)", err)
	}

	if err := os.WriteFile(walPath(dir), []byte(walMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := openTest(t, dir)
	if st := m2.Stats(); len(st) != 0 {
		t.Fatalf("torn first write replayed %v", st)
	}
	if _, err := m2.Enqueue("q", nil); err != nil {
		t.Fatal(err)
	}
}
