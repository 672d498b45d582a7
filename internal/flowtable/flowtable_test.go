package flowtable

import (
	"math/rand"
	"testing"
	"time"

	"sdnshield/internal/of"
)

func ipDstMatch(a, b, c, d byte, bits int) *of.Match {
	return of.NewMatch().SetMasked(of.FieldIPDst,
		uint64(of.IPv4FromOctets(a, b, c, d)), uint64(of.PrefixMask(bits)))
}

func tcpPkt(dst of.IPv4, dport uint16) *of.Packet {
	return of.NewTCPPacket(of.MAC{1}, of.MAC{2}, of.IPv4FromOctets(1, 1, 1, 1), dst, 999, dport, 0)
}

func TestPriorityMatching(t *testing.T) {
	tbl := New(0)
	low := Entry{Match: ipDstMatch(10, 0, 0, 0, 8), Priority: 10, Actions: []of.Action{of.Output(1)}, Owner: "a"}
	high := Entry{Match: ipDstMatch(10, 13, 0, 0, 16), Priority: 100, Actions: []of.Action{of.Drop()}, Owner: "b"}
	if err := tbl.Add(low); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(high); err != nil {
		t.Fatal(err)
	}

	hit, ok := tbl.Lookup(tcpPkt(of.IPv4FromOctets(10, 13, 1, 1), 80), 1, 100)
	if !ok || hit.Priority != 100 {
		t.Fatalf("expected high-priority hit, got %v, %v", hit, ok)
	}
	hit, ok = tbl.Lookup(tcpPkt(of.IPv4FromOctets(10, 99, 1, 1), 80), 1, 100)
	if !ok || hit.Priority != 10 {
		t.Fatalf("expected low-priority hit, got %v, %v", hit, ok)
	}
	if _, ok := tbl.Lookup(tcpPkt(of.IPv4FromOctets(9, 9, 9, 9), 80), 1, 100); ok {
		t.Error("miss expected")
	}
}

func TestAddReplacesSamePriorityAndMatch(t *testing.T) {
	tbl := New(0)
	m := ipDstMatch(10, 0, 0, 0, 8)
	mustAdd(t, tbl, Entry{Match: m, Priority: 5, Actions: []of.Action{of.Output(1)}, Owner: "a"})
	// Bump counters.
	tbl.Lookup(tcpPkt(of.IPv4FromOctets(10, 1, 1, 1), 80), 1, 64)
	mustAdd(t, tbl, Entry{Match: m, Priority: 5, Actions: []of.Action{of.Output(2)}, Owner: "a"})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace)", tbl.Len())
	}
	entries := tbl.Entries(nil)
	if entries[0].Actions[0].Port != 2 {
		t.Error("replacement actions not installed")
	}
	if entries[0].Packets != 0 {
		t.Error("replacement must reset counters")
	}
	// Same match, different priority: coexists.
	mustAdd(t, tbl, Entry{Match: m, Priority: 6, Owner: "a"})
	if tbl.Len() != 2 {
		t.Error("different priority should add a new entry")
	}
}

func mustAdd(t *testing.T, tbl *Table, e Entry) {
	t.Helper()
	if err := tbl.Add(e); err != nil {
		t.Fatal(err)
	}
}

func TestCapacity(t *testing.T) {
	tbl := New(2)
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 0, 0, 1, 32), Priority: 1})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 0, 0, 2, 32), Priority: 1})
	err := tbl.Add(Entry{Match: ipDstMatch(10, 0, 0, 3, 32), Priority: 1})
	if err != ErrTableFull {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	// Replacement still works at capacity.
	if err := tbl.Add(Entry{Match: ipDstMatch(10, 0, 0, 2, 32), Priority: 1, Cookie: 7}); err != nil {
		t.Errorf("replace at capacity failed: %v", err)
	}
	if tbl.Capacity() != 2 {
		t.Error("Capacity accessor wrong")
	}
}

func TestDeleteStrictAndNonStrict(t *testing.T) {
	tbl := New(0)
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 13, 0, 0, 16), Priority: 10, Owner: "a"})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 13, 7, 0, 24), Priority: 20, Owner: "b"})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 14, 0, 0, 16), Priority: 10, Owner: "a"})

	// Strict delete must match exactly (match AND priority).
	removed := tbl.Delete(ipDstMatch(10, 13, 0, 0, 16), 99, true)
	if len(removed) != 0 {
		t.Error("strict delete with wrong priority removed entries")
	}
	removed = tbl.Delete(ipDstMatch(10, 13, 0, 0, 16), 10, true)
	if len(removed) != 1 || removed[0].Owner != "a" {
		t.Fatalf("strict delete = %v", removed)
	}

	// Non-strict delete removes all narrower entries.
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 13, 0, 0, 16), Priority: 10, Owner: "a"})
	removed = tbl.Delete(ipDstMatch(10, 13, 0, 0, 16), 0, false)
	if len(removed) != 2 {
		t.Fatalf("non-strict delete removed %d, want 2 (both 10.13/16 and 10.13.7/24)", len(removed))
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Wildcard delete clears the table.
	removed = tbl.Delete(nil, 0, false)
	if len(removed) != 1 || tbl.Len() != 0 {
		t.Error("wildcard delete should clear")
	}
}

func TestModify(t *testing.T) {
	tbl := New(0)
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 13, 0, 0, 16), Priority: 10, Actions: []of.Action{of.Output(1)}})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 13, 7, 0, 24), Priority: 20, Actions: []of.Action{of.Output(1)}})

	n := tbl.Modify(ipDstMatch(10, 13, 0, 0, 16), 0, false, []of.Action{of.Output(9)})
	if n != 2 {
		t.Fatalf("non-strict modify touched %d", n)
	}
	for _, e := range tbl.Entries(nil) {
		if e.Actions[0].Port != 9 {
			t.Error("actions not rewritten")
		}
	}
	n = tbl.Modify(ipDstMatch(10, 13, 7, 0, 24), 20, true, []of.Action{of.Drop()})
	if n != 1 {
		t.Fatalf("strict modify touched %d", n)
	}
}

func TestOwnership(t *testing.T) {
	tbl := New(0)
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 13, 0, 0, 16), Priority: 10, Owner: "firewall"})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 14, 0, 0, 16), Priority: 10, Owner: "router"})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 14, 1, 0, 24), Priority: 20, Owner: "router"})

	if n := tbl.CountByOwner("router"); n != 2 {
		t.Errorf("CountByOwner = %d", n)
	}
	owner, ok := tbl.OwnerOf(ipDstMatch(10, 13, 0, 0, 16), 10)
	if !ok || owner != "firewall" {
		t.Errorf("OwnerOf exact = %q, %v", owner, ok)
	}
	// Overlap resolution when no exact entry exists.
	owner, ok = tbl.OwnerOf(ipDstMatch(10, 13, 7, 0, 24), 99)
	if !ok || owner != "firewall" {
		t.Errorf("OwnerOf overlap = %q, %v", owner, ok)
	}
	if _, ok := tbl.OwnerOf(ipDstMatch(99, 0, 0, 0, 8), 1); ok {
		t.Error("no overlap should report none")
	}
	// 10.12.0.0/14 spans 10.12–10.15, overlapping both owners' rules.
	owners := tbl.Owners(ipDstMatch(10, 12, 0, 0, 14))
	if len(owners) != 2 {
		t.Errorf("Owners = %v", owners)
	}
}

func TestTimeouts(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	tbl := New(0, WithClock(clock))

	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 0, 0, 0, 8), Priority: 1, IdleTimeout: 10, Owner: "a"})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(11, 0, 0, 0, 8), Priority: 1, HardTimeout: 30, Owner: "b"})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(12, 0, 0, 0, 8), Priority: 1, Owner: "c"}) // permanent

	// t+5: traffic keeps the idle rule alive.
	now = now.Add(5 * time.Second)
	tbl.Lookup(tcpPkt(of.IPv4FromOctets(10, 1, 1, 1), 80), 1, 1)
	if exp := tbl.Expire(); len(exp) != 0 {
		t.Fatalf("nothing should expire yet: %v", exp)
	}

	// t+14: idle rule last hit at t+5, so 9s idle -> still alive.
	now = time.Unix(1000, 0).Add(14 * time.Second)
	if exp := tbl.Expire(); len(exp) != 0 {
		t.Fatalf("idle not yet exceeded: %v", exp)
	}

	// t+16: 11s since last hit -> idle timeout fires.
	now = time.Unix(1000, 0).Add(16 * time.Second)
	exp := tbl.Expire()
	if len(exp) != 1 || exp[0].Reason != of.RemovedIdleTimeout || exp[0].Entry.Owner != "a" {
		t.Fatalf("expire = %+v", exp)
	}

	// t+31: hard timeout fires regardless of traffic.
	now = time.Unix(1000, 0).Add(29 * time.Second)
	tbl.Lookup(tcpPkt(of.IPv4FromOctets(11, 1, 1, 1), 80), 1, 1)
	now = time.Unix(1000, 0).Add(31 * time.Second)
	exp = tbl.Expire()
	if len(exp) != 1 || exp[0].Reason != of.RemovedHardTimeout || exp[0].Entry.Owner != "b" {
		t.Fatalf("expire = %+v", exp)
	}
	if tbl.Len() != 1 {
		t.Error("permanent rule must survive")
	}
}

func TestStats(t *testing.T) {
	tbl := New(0)
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 0, 0, 0, 8), Priority: 1, Cookie: 42})
	mustAdd(t, tbl, Entry{Match: ipDstMatch(11, 0, 0, 0, 8), Priority: 1})
	tbl.Lookup(tcpPkt(of.IPv4FromOctets(10, 1, 1, 1), 80), 1, 100)
	tbl.Lookup(tcpPkt(of.IPv4FromOctets(10, 1, 1, 2), 80), 1, 50)

	s := tbl.Stats()
	if s.FlowCount != 2 || s.PacketsTotal != 2 || s.BytesTotal != 150 {
		t.Errorf("Stats = %+v", s)
	}
	fs := tbl.FlowStats(ipDstMatch(10, 0, 0, 0, 8))
	if len(fs) != 1 || fs[0].Packets != 2 || fs[0].Bytes != 150 || fs[0].Cookie != 42 {
		t.Errorf("FlowStats = %+v", fs)
	}
}

func TestSnapshotsDoNotAlias(t *testing.T) {
	tbl := New(0)
	acts := []of.Action{of.Output(1)}
	mustAdd(t, tbl, Entry{Match: ipDstMatch(10, 0, 0, 0, 8), Priority: 1, Actions: acts})
	// Mutating the caller's slice after Add must not affect the table.
	acts[0].Port = 99
	if tbl.Entries(nil)[0].Actions[0].Port != 1 {
		t.Error("Add aliased caller's actions")
	}
	// Mutating a snapshot must not affect the table.
	snap := tbl.Entries(nil)[0]
	snap.Actions[0].Port = 77
	snap.Match.Set(of.FieldTPDst, 1)
	fresh := tbl.Entries(nil)[0]
	if fresh.Actions[0].Port != 1 || !fresh.Match.IsWildcarded(of.FieldTPDst) {
		t.Error("snapshot aliases table state")
	}
}

// TestModelAgainstReference cross-checks Lookup against a brute-force
// reference implementation on randomized tables and packets.
func TestModelAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		tbl := New(0)
		type refEntry struct {
			m    *of.Match
			prio uint16
			id   int
		}
		var ref []refEntry
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			bits := []int{8, 16, 24, 32}[r.Intn(4)]
			m := ipDstMatch(10, byte(r.Intn(4)), byte(r.Intn(4)), 0, bits)
			if r.Intn(3) == 0 {
				m.Set(of.FieldTPDst, uint64(80+r.Intn(3)))
			}
			prio := uint16(r.Intn(5) * 10)
			mustAdd(t, tbl, Entry{Match: m, Priority: prio, Cookie: uint64(i)})
			// Mirror replacement semantics in the reference.
			replaced := false
			for j := range ref {
				if ref[j].prio == prio && ref[j].m.Equal(m) {
					ref[j] = refEntry{m: m, prio: prio, id: i}
					replaced = true
					break
				}
			}
			if !replaced {
				ref = append(ref, refEntry{m: m, prio: prio, id: i})
			}
		}
		for probe := 0; probe < 50; probe++ {
			pkt := tcpPkt(of.IPv4FromOctets(10, byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(2))), uint16(80+r.Intn(3)))
			inPort := uint16(r.Intn(4))
			// Reference: max priority among matches; ties by earliest
			// insertion (stable order).
			best := -1
			bestPrio := -1
			for _, e := range ref {
				if e.m.MatchesPacket(pkt, inPort) && int(e.prio) > bestPrio {
					bestPrio = int(e.prio)
					best = e.id
				}
			}
			got, ok := tbl.Lookup(pkt, inPort, 1)
			if (best >= 0) != ok {
				t.Fatalf("trial %d: hit mismatch (ref %v, table %v)", trial, best >= 0, ok)
			}
			if ok && int(got.Priority) != bestPrio {
				t.Fatalf("trial %d: priority mismatch: got %d, want %d", trial, got.Priority, bestPrio)
			}
		}
	}
	// The same over the whole API: the indexed table against the linear
	// implementation it replaced (reference_test.go).
	t.Run("ops", testOpsAgainstReference)
}
