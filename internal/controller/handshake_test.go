package controller

import (
	"errors"
	"testing"
	"time"

	"sdnshield/internal/faults"
	"sdnshield/internal/of"
)

// handshakeSwitch serves a kernel on sw until the connection closes: it
// records every FeaturesRequest's xid on xids and answers each with a
// Hello and two copies of its FeaturesReply, as a switch behind a
// duplicating link would, and it answers barriers.
func handshakeSwitch(sw of.Conn, dpid of.DPID, xids chan<- uint32) {
	for {
		msg, err := sw.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *of.FeaturesRequest:
			xids <- m.Xid
			reply := &of.FeaturesReply{Header: of.Header{Xid: m.Xid}, DPID: dpid}
			_ = sw.Send(&of.Hello{Header: of.Header{Xid: 7}})
			_ = sw.Send(reply)
			_ = sw.Send(reply)
		case *of.BarrierRequest:
			_ = sw.Send(&of.BarrierReply{Header: of.Header{Xid: m.Xid}})
		}
	}
}

// TestHandshakeRetriesLostMessages: with the first Hello and the first
// FeaturesRequest dropped, the handshake is sent again under a fresh xid
// and completes; the duplicate Hello and FeaturesReply that follow do
// not disturb the session.
func TestHandshakeRetriesLostMessages(t *testing.T) {
	k := New(nil, nil, KernelConfig{RequestTimeout: 50 * time.Millisecond, MaxRetries: 2, RetryBackoff: time.Millisecond})
	defer k.Stop()
	ctrl, sw := of.Pipe()
	lossy := faults.Wrap(ctrl, faults.Script{Send: map[int]faults.Fault{0: {Kind: faults.Drop}, 1: {Kind: faults.Drop}}})
	xids := make(chan uint32, 16)
	go handshakeSwitch(sw, 9, xids)

	dpid, err := k.AcceptSwitch(lossy)
	if err != nil {
		t.Fatalf("AcceptSwitch with a lost first handshake: %v", err)
	}
	if dpid != 9 {
		t.Fatalf("dpid = %v, want 9", dpid)
	}
	if got := lossy.Stats().Dropped; got != 2 {
		t.Fatalf("dropped %d messages, want the first Hello and FeaturesRequest", got)
	}
	if xid := <-xids; xid == 2 {
		t.Fatalf("resent FeaturesRequest reused the first attempt's xid %d", xid)
	}
	// The session survives the duplicates: a barrier round-trips.
	if err := k.Barrier(9); err != nil {
		t.Fatalf("barrier after a retried handshake: %v", err)
	}
}

// TestHandshakeTimesOutAfterRetries: a switch that never answers gets
// MaxRetries+1 FeaturesRequests, each under its own xid, and ErrTimeout
// comes only after the last attempt's timeout.
func TestHandshakeTimesOutAfterRetries(t *testing.T) {
	const timeout, retries = 30 * time.Millisecond, 2
	k := New(nil, nil, KernelConfig{RequestTimeout: timeout, MaxRetries: retries, RetryBackoff: time.Millisecond, BackoffJitter: -1})
	defer k.Stop()
	ctrl, sw := of.Pipe()
	var got []uint32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := sw.Recv()
			if err != nil {
				return
			}
			if m, ok := msg.(*of.FeaturesRequest); ok {
				got = append(got, m.Xid)
			}
		}
	}()
	start := time.Now()
	if _, err := k.AcceptSwitch(ctrl); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < (retries+1)*timeout {
		t.Fatalf("ErrTimeout after %v, before %d attempts of %v", elapsed, retries+1, timeout)
	}
	<-done // AcceptSwitch closed the connection
	if len(got) != retries+1 {
		t.Fatalf("switch saw %d FeaturesRequests %v, want %d", len(got), got, retries+1)
	}
	seen := map[uint32]bool{}
	for _, xid := range got {
		if seen[xid] {
			t.Fatalf("FeaturesRequest xids %v repeat", got)
		}
		seen[xid] = true
	}
}

// TestHandshakeCleanPathMessages: without loss the handshake sends what
// it always sent — one Hello (xid 1) and one FeaturesRequest (xid 2).
func TestHandshakeCleanPathMessages(t *testing.T) {
	k := New(nil, nil, KernelConfig{MaxRetries: 3})
	ctrl, sw := of.Pipe()
	var got []of.Message
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := sw.Recv()
			if err != nil {
				return
			}
			got = append(got, msg)
			if m, ok := msg.(*of.FeaturesRequest); ok {
				_ = sw.Send(&of.FeaturesReply{Header: of.Header{Xid: m.Xid}, DPID: 3})
			}
		}
	}()
	if _, err := k.AcceptSwitch(ctrl); err != nil {
		t.Fatal(err)
	}
	k.Stop() // closes the connection, ending the recorder
	<-done
	if len(got) != 2 || got[0].Type() != of.MsgHello || got[0].XID() != 1 ||
		got[1].Type() != of.MsgFeaturesRequest || got[1].XID() != 2 {
		t.Fatalf("clean handshake sent %v, want Hello xid 1 and FeaturesRequest xid 2", got)
	}
}

// TestSessionXidsAboveHandshake: with enough retries for handshake xids
// to reach past 100, session requests still start above the last
// handshake xid, so a late FeaturesReply cannot answer a live request.
func TestSessionXidsAboveHandshake(t *testing.T) {
	const retries = 60
	k := New(nil, nil, KernelConfig{MaxRetries: retries})
	defer k.Stop()
	ctrl, sw := of.Pipe()
	barriers := make(chan uint32, 1)
	go func() {
		for {
			msg, err := sw.Recv()
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *of.FeaturesRequest:
				_ = sw.Send(&of.FeaturesReply{Header: of.Header{Xid: m.Xid}, DPID: 4})
			case *of.BarrierRequest:
				barriers <- m.Xid
				_ = sw.Send(&of.BarrierReply{Header: of.Header{Xid: m.Xid}})
			}
		}
	}()
	if _, err := k.AcceptSwitch(ctrl); err != nil {
		t.Fatal(err)
	}
	if err := k.Barrier(4); err != nil {
		t.Fatal(err)
	}
	if xid := <-barriers; xid <= 2*(retries+1) {
		t.Fatalf("barrier xid %d within the handshake range 1..%d", xid, 2*(retries+1))
	}
}
