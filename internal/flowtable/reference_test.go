package flowtable

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/of"
)

// refTable is the linear flow table this package shipped before the
// indexes: every question answered by one walk of the priority-sorted
// slice. It is the reference the differential test holds Table to.
type refTable struct {
	mu       sync.Mutex
	entries  []*Entry // sorted by priority descending, stable insertion order
	capacity int
	now      func() time.Time
}

func newRef(capacity int, now func() time.Time) *refTable {
	return &refTable{capacity: capacity, now: now}
}

// Len returns the number of installed entries.
func (t *refTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Add installs a rule. Per OpenFlow semantics an entry with an identical
// match and priority is replaced (counters reset). Returns ErrTableFull
// when at capacity.
func (t *refTable) Add(e Entry) error {
	if e.Match == nil {
		e.Match = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	e.installedAt, e.lastHit = now, now
	e.Match = e.Match.Clone()
	e.Actions = of.CloneActions(e.Actions)

	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match.Equal(e.Match) {
			t.entries[i] = &e
			return nil
		}
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return ErrTableFull
	}
	// Insert keeping priority-descending order, after equal priorities
	// (stable).
	idx := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].Priority < e.Priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[idx+1:], t.entries[idx:])
	t.entries[idx] = &e
	return nil
}

// Modify rewrites the actions of matching rules. Non-strict modifies
// every rule whose match is subsumed by m; strict requires equal match
// and priority. Returns the number of modified rules.
func (t *refTable) Modify(m *of.Match, priority uint16, strict bool, actions []of.Action) int {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	count := 0
	for _, e := range t.entries {
		if matchesForEdit(e, m, priority, strict) {
			e.Actions = of.CloneActions(actions)
			count++
		}
	}
	return count
}

// Delete removes matching rules with OpenFlow's strict/non-strict
// semantics and returns the removed entries (snapshots).
func (t *refTable) Delete(m *of.Match, priority uint16, strict bool) []*Entry {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []*Entry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if matchesForEdit(e, m, priority, strict) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return removed
}

func matchesForEdit(e *Entry, m *of.Match, priority uint16, strict bool) bool {
	if strict {
		return e.Priority == priority && e.Match.Equal(m)
	}
	return m.Subsumes(e.Match)
}

// Lookup finds the highest-priority entry matching the packet and bumps
// its counters. ok is false on a table miss.
func (t *refTable) Lookup(pkt *of.Packet, inPort uint16, size uint64) (*Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.Match.MatchesPacket(pkt, inPort) {
			e.Packets++
			e.Bytes += size
			e.lastHit = t.now()
			return e.Clone(), true
		}
	}
	return nil, false
}

// Entries returns snapshots of all rules whose match is subsumed by m
// (nil/wildcard m returns everything), in table order.
func (t *refTable) Entries(m *of.Match) []*Entry {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Entry, 0, len(t.entries))
	for _, e := range t.entries {
		if m.Subsumes(e.Match) {
			out = append(out, e.Clone())
		}
	}
	return out
}

// CountByOwner returns the number of rules installed by one app, the
// quantity SDNShield's MAX_RULE_COUNT filter bounds.
func (t *refTable) CountByOwner(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if e.Owner == owner {
			n++
		}
	}
	return n
}

// OwnerOf returns the owner of the highest-priority rule equal to or
// overlapping the given match, preferring exact matches. ok is false when
// no rule overlaps. The permission engine uses this to resolve
// Call.FlowOwner before a modify/delete check.
func (t *refTable) OwnerOf(m *of.Match, priority uint16) (string, bool) {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.Priority == priority && e.Match.Equal(m) {
			return e.Owner, true
		}
	}
	for _, e := range t.entries {
		if e.Match.Overlaps(m) {
			return e.Owner, true
		}
	}
	return "", false
}

// ForeignOverlapOwner returns the owner of the first rule overlapping m
// whose owner differs from app and whose priority is at or below
// maxPriority — the rule a new insert at maxPriority could shadow. It
// allocates nothing, serving the permission engine's hot path.
func (t *refTable) ForeignOverlapOwner(app string, m *of.Match, maxPriority uint16) (string, bool) {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.Owner == app || e.Priority > maxPriority {
			continue
		}
		if e.Match.Overlaps(m) {
			return e.Owner, true
		}
	}
	return "", false
}

// Owners returns the distinct owners of rules overlapping the match, in
// table order. Used to detect rule-override attacks across apps.
func (t *refTable) Owners(m *of.Match) []string {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, e := range t.entries {
		if e.Match.Overlaps(m) && !seen[e.Owner] {
			seen[e.Owner] = true
			out = append(out, e.Owner)
		}
	}
	return out
}

// Expire removes entries past their idle or hard timeout and returns the
// expired entries with the reason, for FlowRemoved notifications.
func (t *refTable) Expire() []Expired {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []Expired
	kept := t.entries[:0]
	for _, e := range t.entries {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.installedAt) >= time.Duration(e.HardTimeout)*time.Second:
			out = append(out, Expired{Entry: e, Reason: of.RemovedHardTimeout})
		case e.IdleTimeout > 0 && now.Sub(e.lastHit) >= time.Duration(e.IdleTimeout)*time.Second:
			out = append(out, Expired{Entry: e, Reason: of.RemovedIdleTimeout})
		default:
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return out
}

// Stats aggregates the table's counters for switch-level statistics.
func (t *refTable) Stats() of.SwitchStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := of.SwitchStats{FlowCount: uint32(len(t.entries))}
	for _, e := range t.entries {
		s.PacketsTotal += e.Packets
		s.BytesTotal += e.Bytes
	}
	return s
}

// ---------------------------------------------------------------------------
// Differential test: Table against refTable.

var diffOwners = []string{"a", "b", "c", ""}

// randMatch draws from a small value space over several mask tuples
// (prefixes, exact ports, a non-prefix mask, the all-wildcard match), so
// random sequences replace, overlap and subsume one another often.
func randMatch(r *rand.Rand) *of.Match {
	m := of.NewMatch()
	switch r.Intn(8) {
	case 0: // wildcard
		return m
	case 1: // non-prefix mask
		m.SetMasked(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, byte(r.Intn(3)), 0)), 0xff00ff00)
	default:
		bits := []int{8, 16, 24, 32}[r.Intn(4)]
		m.SetMasked(of.FieldIPDst,
			uint64(of.IPv4FromOctets(10, byte(r.Intn(3)), byte(r.Intn(3)), byte(r.Intn(2)))), uint64(of.PrefixMask(bits)))
	}
	if r.Intn(3) == 0 {
		m.Set(of.FieldTPDst, uint64(80+r.Intn(2)))
	}
	if r.Intn(4) == 0 {
		m.SetMasked(of.FieldIPSrc, uint64(of.IPv4FromOctets(1, 1, byte(r.Intn(2)), 1)), uint64(of.PrefixMask([]int{16, 32}[r.Intn(2)])))
	}
	if r.Intn(6) == 0 {
		m.Set(of.FieldInPort, uint64(r.Intn(2)))
	}
	return m
}

func randPriority(r *rand.Rand) uint16 { return uint16(r.Intn(4) * 10) }

func sameEntry(a, b *Entry) bool {
	return a.Priority == b.Priority && a.Match.Equal(b.Match) &&
		reflect.DeepEqual(a.Actions, b.Actions) && a.Cookie == b.Cookie && a.Owner == b.Owner &&
		a.IdleTimeout == b.IdleTimeout && a.HardTimeout == b.HardTimeout &&
		a.Packets == b.Packets && a.Bytes == b.Bytes &&
		a.installedAt.Equal(b.installedAt) && a.lastHit.Equal(b.lastHit)
}

func sameEntries(a, b []*Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameEntry(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkIndexes holds the invariants listed in index.go, and that the
// slice's vacated tail pins no removed rule.
func checkIndexes(t *testing.T, tbl *Table) {
	t.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	for i := 1; i < len(tbl.entries); i++ {
		if !before(tbl.entries[i-1], tbl.entries[i]) {
			t.Fatalf("slice out of (priority, seq) order at %d", i)
		}
	}
	for _, e := range tbl.entries[len(tbl.entries):cap(tbl.entries)] {
		if e != nil {
			t.Fatal("removed entry still referenced from the slice tail")
		}
	}
	owners := map[string]int{}
	for _, e := range tbl.entries {
		owners[e.Owner]++
		values, masks := unpack(e.Match)
		onExact := 0
		for x := tbl.exact[exactKey(e.Priority, &values, &masks)]; x != nil; x = x.exactNext {
			if x == e {
				onExact++
			}
		}
		g := tbl.tuples[masks]
		onTuple := 0
		if g != nil {
			for x := g.byValue[valueKey(&values, &masks)]; x != nil; x = x.tupleNext {
				if x == e {
					onTuple++
				}
			}
		}
		if onExact != 1 || onTuple != 1 {
			t.Fatalf("entry %v prio %d: on %d exact chains, %d tuple chains", e.Match, e.Priority, onExact, onTuple)
		}
	}
	if !reflect.DeepEqual(owners, tbl.owners) {
		t.Fatalf("owner counters %v, table holds %v", tbl.owners, owners)
	}
	indexed := 0
	for _, e := range tbl.exact {
		for ; e != nil; e = e.exactNext {
			indexed++
		}
	}
	grouped := 0
	for _, g := range tbl.tuples {
		if len(g.byValue) == 0 {
			t.Fatal("empty tuple group kept")
		}
		for _, e := range g.byValue {
			for ; e != nil; e = e.tupleNext {
				grouped++
			}
		}
	}
	if indexed != len(tbl.entries) || grouped != len(tbl.entries) {
		t.Fatalf("%d entries, %d on exact chains, %d in tuple groups", len(tbl.entries), indexed, grouped)
	}
}

// testOpsAgainstReference drives Table and refTable through the same
// random add / replace-with-new-owner / modify / delete / lookup / expire
// sequence and holds every answer equal after every step, while reader
// goroutines query the indexed table (for the race detector; they do not
// Lookup, which would move the counters the comparison reads).
func testOpsAgainstReference(t *testing.T) {
	// -short shrinks the seed range rather than skipping the test: four
	// seeds still cover both the unbounded and the capacity-12 table, at a
	// quarter of the 15 s the full range costs under the race detector.
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		capacity := 0
		if seed%3 == 2 {
			capacity = 12
		}
		tbl, ref := New(capacity, WithClock(clock)), newRef(capacity, clock)

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for i := int64(0); i < 2; i++ {
			readers.Add(1)
			go func(rr *rand.Rand) {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					m := randMatch(rr)
					tbl.ForeignOverlapOwner(diffOwners[rr.Intn(len(diffOwners))], m, randPriority(rr))
					tbl.OwnerOf(m, randPriority(rr))
					tbl.Owners(m)
					tbl.CountByOwner("a")
					tbl.Entries(m)
					tbl.Stats()
				}
			}(rand.New(rand.NewSource(seed*100 + i)))
		}

		for step := 0; step < 250; step++ {
			fail := func(format string, args ...interface{}) {
				t.Helper()
				close(stop)
				readers.Wait()
				t.Fatalf("seed %d step %d: "+format, append([]interface{}{seed, step}, args...)...)
			}
			m, prio := randMatch(r), randPriority(r)
			switch op := r.Intn(20); {
			case op < 9: // add, or replace (often under another owner)
				e := Entry{
					Match: m, Priority: prio, Owner: diffOwners[r.Intn(len(diffOwners))],
					Actions: []of.Action{of.Output(uint16(r.Intn(4)))}, Cookie: uint64(step),
					IdleTimeout: uint16(r.Intn(3) * 4), HardTimeout: uint16(r.Intn(3) * 7),
				}
				if got, want := tbl.Add(e), ref.Add(e); got != want {
					fail("Add err = %v, reference %v", got, want)
				}
			case op < 11:
				strict := r.Intn(2) == 0
				acts := []of.Action{of.Output(uint16(10 + r.Intn(4)))}
				if got, want := tbl.Modify(m, prio, strict, acts), ref.Modify(m, prio, strict, acts); got != want {
					fail("Modify(strict=%v) = %d, reference %d", strict, got, want)
				}
			case op < 14:
				strict := r.Intn(2) == 0
				if got, want := tbl.Delete(m, prio, strict), ref.Delete(m, prio, strict); !sameEntries(got, want) {
					fail("Delete(strict=%v) removed %d, reference %d", strict, len(got), len(want))
				}
			case op < 18:
				pkt := tcpPkt(of.IPv4FromOctets(10, byte(r.Intn(3)), byte(r.Intn(3)), byte(r.Intn(2))), uint16(80+r.Intn(2)))
				inPort := uint16(r.Intn(2))
				got, ok := tbl.Lookup(pkt, inPort, 64)
				want, wantOK := ref.Lookup(pkt, inPort, 64)
				if ok != wantOK || (ok && !sameEntry(got, want)) {
					fail("Lookup = %v %v, reference %v %v", got, ok, want, wantOK)
				}
			default:
				now = now.Add(time.Duration(r.Intn(6)) * time.Second)
				got, want := tbl.Expire(), ref.Expire()
				if len(got) != len(want) {
					fail("Expire removed %d, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i].Reason != want[i].Reason || !sameEntry(got[i].Entry, want[i].Entry) {
						fail("Expire[%d] differs", i)
					}
				}
			}

			if !sameEntries(tbl.Entries(nil), ref.Entries(nil)) {
				fail("Entries(nil) differ")
			}
			if tbl.Len() != ref.Len() || tbl.Stats() != ref.Stats() {
				fail("Len/Stats = %d %+v, reference %d %+v", tbl.Len(), tbl.Stats(), ref.Len(), ref.Stats())
			}
			for _, o := range append([]string{"nobody"}, diffOwners...) {
				if got, want := tbl.CountByOwner(o), ref.CountByOwner(o); got != want {
					fail("CountByOwner(%q) = %d, reference %d", o, got, want)
				}
			}
			for _, q := range []*of.Match{m, randMatch(r), randMatch(r), nil} {
				qp := randPriority(r)
				got, ok := tbl.OwnerOf(q, qp)
				want, wantOK := ref.OwnerOf(q, qp)
				if got != want || ok != wantOK {
					fail("OwnerOf(%v, %d) = %q %v, reference %q %v", q, qp, got, ok, want, wantOK)
				}
				for _, app := range diffOwners {
					got, ok := tbl.ForeignOverlapOwner(app, q, qp)
					want, wantOK := ref.ForeignOverlapOwner(app, q, qp)
					if got != want || ok != wantOK {
						fail("ForeignOverlapOwner(%q, %v, %d) = %q %v, reference %q %v", app, q, qp, got, ok, want, wantOK)
					}
				}
				if got, want := tbl.Owners(q), ref.Owners(q); !reflect.DeepEqual(got, want) {
					fail("Owners(%v) = %q, reference %q", q, got, want)
				}
				if !sameEntries(tbl.Entries(q), ref.Entries(q)) {
					fail("Entries(%v) differ", q)
				}
			}
			checkIndexes(t, tbl)
		}
		close(stop)
		readers.Wait()
	}
}
