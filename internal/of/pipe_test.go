package of

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPipeSendRacingPeerClose: writers racing the peer's Close each get
// nil or ErrClosed — never a panic, never a hang — and the reader sees
// every message that was accepted before the close.
func TestPipeSendRacingPeerClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		a, b := Pipe()
		const writers, each = 8, 64 // more than pipeDepth in all: some writers block
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			accepted int
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					switch err := a.Send(&Hello{}); {
					case err == nil:
						mu.Lock()
						accepted++
						mu.Unlock()
					case errors.Is(err, ErrClosed):
						return
					default:
						t.Errorf("send = %v, want nil or ErrClosed", err)
						return
					}
				}
			}()
		}
		// Read a little, then close the reading end under the writers.
		for i := 0; i < round; i++ {
			if _, err := b.Recv(); err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
		}
		b.Close()
		waitOrFail(t, "writers after peer close", wg.Wait)
		if _, err := b.Recv(); err != ErrClosed {
			t.Fatalf("recv on closed end = %v, want ErrClosed", err)
		}
		if accepted < round {
			t.Fatalf("accepted %d sends, but %d were received", accepted, round)
		}
		a.Close()
	}
}

// TestPipeBlockedWriterReleased: a writer blocked on a pipe holding
// pipeDepth unread messages is released by a Recv, and another by a
// Close.
func TestPipeBlockedWriterReleased(t *testing.T) {
	a, b := Pipe()
	for i := 0; i < pipeDepth; i++ {
		if err := a.Send(&Hello{Header: Header{Xid: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(&Hello{Header: Header{Xid: pipeDepth}}) }()
	select {
	case err := <-sent:
		t.Fatalf("send to a full pipe returned %v without waiting", err)
	case <-time.After(20 * time.Millisecond):
	}
	if msg, err := b.Recv(); err != nil || msg.XID() != 0 {
		t.Fatalf("recv = (%v, %v), want xid 0", msg, err)
	}
	if err := recvWithin(t, sent); err != nil {
		t.Fatalf("send released by a recv = %v, want nil", err)
	}

	// Full again: the next writer is released by the peer's Close.
	go func() { sent <- a.Send(&Hello{}) }()
	select {
	case err := <-sent:
		t.Fatalf("send to a full pipe returned %v without waiting", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.Close()
	if err := recvWithin(t, sent); err != ErrClosed {
		t.Fatalf("send released by close = %v, want ErrClosed", err)
	}
	a.Close()
}

// TestPipeRecvAfterOwnClose: an end's own Close ends its Recv at once,
// even with messages from the peer still unread.
func TestPipeRecvAfterOwnClose(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	if err := a.Send(&Hello{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("recv after own close = %v, want ErrClosed", err)
	}

	// A Recv already waiting is released by its own end's Close too.
	c, d := Pipe()
	defer c.Close()
	got := make(chan error, 1)
	go func() {
		_, err := d.Recv()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Recv park; it must not matter if it has not
	d.Close()
	if err := recvWithin(t, got); err != ErrClosed {
		t.Fatalf("waiting recv after own close = %v, want ErrClosed", err)
	}
}

// TestPipeHopAllocs: a Send and its Recv allocate nothing.
func TestPipeHopAllocs(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := &BarrierRequest{}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Send+Recv = %v allocs, want 0", allocs)
	}
}

// BenchmarkPipeHop times one Send and its Recv on one goroutine: the
// queue operations without a scheduler hand-off.
func BenchmarkPipeHop(b *testing.B) {
	x, y := Pipe()
	defer x.Close()
	defer y.Close()
	msg := &BarrierRequest{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := x.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := y.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipePingPong times a round trip across two goroutines: a
// Send, the peer's Recv and reply, and the reply's Recv — two hand-offs
// that each wake a parked reader.
func BenchmarkPipePingPong(b *testing.B) {
	x, y := Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := y.Recv()
			if err != nil {
				return
			}
			if y.Send(msg) != nil {
				return
			}
		}
	}()
	msg := &BarrierRequest{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := x.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := x.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	x.Close()
	<-done
	y.Close()
}

// recvWithin waits up to a second for ch's value.
func recvWithin(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(time.Second):
		t.Fatal("still blocked after 1s")
		return nil
	}
}

// waitOrFail runs wait and fails the test if it has not returned in 5 s.
func waitOrFail(t *testing.T, what string, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}
