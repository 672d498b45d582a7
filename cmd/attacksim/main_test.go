package main

import (
	"fmt"
	"testing"

	"sdnshield/internal/faults"
	"sdnshield/internal/of"
)

// sinkConn records which sends reach the switch side of a connection.
type sinkConn struct {
	of.Conn
	sent int
}

func (c *sinkConn) Send(of.Message) error { c.sent++; return nil }

// schedule is which of 64 sends a wrapped connection lets through, as a
// bit set.
func schedule(wrap func(int, of.DPID, of.Conn) of.Conn, row int, dpid of.DPID) uint64 {
	sink := &sinkConn{}
	conn := wrap(row, dpid, sink)
	var through uint64
	for i := 0; i < 64; i++ {
		before := sink.sent
		_ = conn.Send(&of.BarrierRequest{})
		if sink.sent > before {
			through |= 1 << i
		}
	}
	return through
}

// TestFaultWrapSchedulePerRow: under one -fault-seed every (row, switch)
// of Table I replays a schedule of its own, and wrapping the same row and
// switch again — the other runtime's run of the row — replays the same.
func TestFaultWrapSchedulePerRow(t *testing.T) {
	wrap := faultWrap(faults.RandomConfig{Drop: 0.5}, 1)
	seen := map[uint64]string{}
	for row := 1; row <= 4; row++ {
		for dpid := of.DPID(1); dpid <= 3; dpid++ {
			s := schedule(wrap, row, dpid)
			if again := schedule(wrap, row, dpid); again != s {
				t.Errorf("row %d switch %d: schedule %x, then %x on the second run", row, dpid, s, again)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("row %d switch %d replays %s's schedule", row, dpid, prev)
			}
			seen[s] = fmt.Sprintf("row %d switch %d", row, dpid)
		}
	}
}
