// Package flowtable implements an OpenFlow 1.0-style flow table:
// priority-ordered matching over the 12-tuple, add/modify/delete with
// strict and non-strict semantics, per-entry counters, idle/hard
// timeouts, and per-app ownership tags. Ownership is the substrate for
// SDNShield's OWN_FLOWS filter and table-size accounting.
//
// The priority-sorted slice is the single source of table order. Three
// secondary indexes (index.go), maintained under the same mutex by every
// mutator, answer the questions a mediated call asks without walking it:
// which rule has exactly this (priority, match), how many rules an owner
// holds, and which rules overlap a match.
package flowtable

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"sdnshield/internal/of"
)

// ErrTableFull reports an insert into a table at capacity.
var ErrTableFull = errors.New("flowtable: table full")

// Entry is one flow rule. The zero IdleTimeout/HardTimeout mean the rule
// never expires.
type Entry struct {
	Match       *of.Match
	Priority    uint16
	Actions     []of.Action
	Cookie      uint64
	Owner       string
	IdleTimeout uint16 // seconds
	HardTimeout uint16 // seconds

	// Packets and Bytes are the entry's hit counters.
	Packets uint64
	Bytes   uint64

	installedAt time.Time
	lastHit     time.Time

	// Index linkage, meaningful only while the entry is resident (index.go).
	seq       uint64 // insertion stamp: (Priority desc, seq asc) is table order
	exactNext *Entry // next rule whose (priority, match) hash collides
	tupleNext *Entry // next rule in the same tuple-group bucket
}

// Clone deep-copies the entry (match and actions included).
func (e *Entry) Clone() *Entry {
	c := *e
	if e.Match != nil {
		c.Match = e.Match.Clone()
	}
	c.Actions = of.CloneActions(e.Actions)
	c.exactNext, c.tupleNext = nil, nil
	return &c
}

// Table is a concurrency-safe flow table.
type Table struct {
	mu       sync.Mutex
	entries  []*Entry // sorted by priority descending, stable insertion order
	capacity int
	now      func() time.Time

	seq    uint64                // last Entry.seq issued
	exact  map[uint64]*Entry     // hash(priority, match) -> chain via exactNext
	owners map[string]int        // owner -> resident rule count
	tuples map[tuple]*tupleGroup // mask tuple -> the rules carrying exactly those masks
}

// Option configures a Table.
type Option func(*Table)

// WithClock injects the time source (tests use a fake clock to drive
// timeout expiry deterministically).
func WithClock(now func() time.Time) Option {
	return func(t *Table) { t.now = now }
}

// New builds a flow table; capacity <= 0 means unbounded.
func New(capacity int, opts ...Option) *Table {
	t := &Table{
		capacity: capacity,
		now:      time.Now,
		exact:    make(map[uint64]*Entry),
		owners:   make(map[string]int),
		tuples:   make(map[tuple]*tupleGroup),
	}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Capacity returns the table's capacity (0 = unbounded).
func (t *Table) Capacity() int { return t.capacity }

// Add installs a rule. Per OpenFlow semantics an entry with an identical
// match and priority is replaced (counters reset). Returns ErrTableFull
// when at capacity.
func (t *Table) Add(e Entry) error {
	_, _, err := t.Swap(e)
	return err
}

// Swap is Add that also hands back the rule it displaced, so a caller
// whose follow-up step fails can put that rule back with Add. replaced is
// false when e was a new rule. A replacement keeps the resident rule's
// match and table position and allocates only the copy of the actions.
func (t *Table) Swap(e Entry) (prev Entry, replaced bool, err error) {
	if e.Match == nil {
		e.Match = of.NewMatch()
	}
	values, masks := unpack(e.Match)
	key := exactKey(e.Priority, &values, &masks)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	e.installedAt, e.lastHit = now, now
	e.Actions = of.CloneActions(e.Actions)

	if old := t.findExact(key, e.Priority, e.Match); old != nil {
		prev = *old
		prev.Match, prev.exactNext, prev.tupleNext = e.Match, nil, nil
		if old.Owner != e.Owner {
			t.disown(old.Owner)
			t.owners[e.Owner]++
		}
		e.Match, e.seq, e.exactNext, e.tupleNext = old.Match, old.seq, old.exactNext, old.tupleNext
		*old = e
		return prev, true, nil
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return Entry{}, false, ErrTableFull
	}
	ne := new(Entry)
	*ne = e
	ne.Match = e.Match.Clone()
	t.seq++
	ne.seq = t.seq
	// Insert keeping priority-descending order, after equal priorities
	// (stable).
	idx := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].Priority < ne.Priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[idx+1:], t.entries[idx:])
	t.entries[idx] = ne
	t.link(ne, key, &values, &masks)
	return Entry{}, false, nil
}

// Modify rewrites the actions of matching rules. Non-strict modifies
// every rule whose match is subsumed by m; strict requires equal match
// and priority. Returns the number of modified rules.
func (t *Table) Modify(m *of.Match, priority uint16, strict bool, actions []of.Action) int {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if strict {
		e := t.lookupExact(priority, m)
		if e == nil {
			return 0
		}
		e.Actions = of.CloneActions(actions)
		return 1
	}
	count := 0
	for _, e := range t.entries {
		if m.Subsumes(e.Match) {
			e.Actions = of.CloneActions(actions)
			count++
		}
	}
	return count
}

// Delete removes matching rules with OpenFlow's strict/non-strict
// semantics and returns the removed entries (snapshots).
func (t *Table) Delete(m *of.Match, priority uint16, strict bool) []*Entry {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if strict {
		e := t.lookupExact(priority, m)
		if e == nil {
			return nil
		}
		i := sort.Search(len(t.entries), func(i int) bool { return !before(t.entries[i], e) })
		t.entries = slices.Delete(t.entries, i, i+1) // clears the vacated slot
		t.unlink(e)
		return []*Entry{e}
	}
	var removed []*Entry
	t.filter(func(e *Entry) bool {
		if !m.Subsumes(e.Match) {
			return false
		}
		removed = append(removed, e)
		return true
	})
	return removed
}

// filter removes every entry drop reports true for, unlinks it from the
// indexes and clears the vacated tail of the slice so the removed rules
// (match and actions) are collectable.
func (t *Table) filter(drop func(*Entry) bool) {
	kept := t.entries[:0]
	for _, e := range t.entries {
		if drop(e) {
			t.unlink(e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(t.entries[len(kept):])
	t.entries = kept
}

// Lookup finds the highest-priority entry matching the packet and bumps
// its counters. ok is false on a table miss.
func (t *Table) Lookup(pkt *of.Packet, inPort uint16, size uint64) (*Entry, bool) {
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
func (t *Table) Entries(m *of.Match) []*Entry {
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
func (t *Table) CountByOwner(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.owners[owner]
}

// OwnerOf returns the owner of the highest-priority rule equal to or
// overlapping the given match, preferring exact matches. ok is false when
// no rule overlaps. The permission engine uses this to resolve
// Call.FlowOwner before a modify/delete check.
func (t *Table) OwnerOf(m *of.Match, priority uint16) (string, bool) {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.lookupExact(priority, m); e != nil {
		return e.Owner, true
	}
	var first *Entry
	t.eachOverlap(m, func(e *Entry) {
		if first == nil || before(e, first) {
			first = e
		}
	})
	if first == nil {
		return "", false
	}
	return first.Owner, true
}

// ForeignOverlapOwner returns the owner of the first rule overlapping m
// whose owner differs from app and whose priority is at or below
// maxPriority — the rule a new insert at maxPriority could shadow. It
// allocates nothing, serving the permission engine's hot path.
func (t *Table) ForeignOverlapOwner(app string, m *of.Match, maxPriority uint16) (string, bool) {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first *Entry
	t.eachOverlap(m, func(e *Entry) {
		if e.Owner != app && e.Priority <= maxPriority && (first == nil || before(e, first)) {
			first = e
		}
	})
	if first == nil {
		return "", false
	}
	return first.Owner, true
}

// Owners returns the distinct owners of rules overlapping the match, in
// table order. Used to detect rule-override attacks across apps.
func (t *Table) Owners(m *of.Match) []string {
	if m == nil {
		m = of.NewMatch()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	first := make(map[string]*Entry)
	var out []string
	t.eachOverlap(m, func(e *Entry) {
		f, seen := first[e.Owner]
		if !seen {
			out = append(out, e.Owner)
		}
		if !seen || before(e, f) {
			first[e.Owner] = e
		}
	})
	sort.Slice(out, func(i, j int) bool { return before(first[out[i]], first[out[j]]) })
	return out
}

// Expire removes entries past their idle or hard timeout and returns the
// expired entries with the reason, for FlowRemoved notifications.
func (t *Table) Expire() []Expired {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []Expired
	t.filter(func(e *Entry) bool {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.installedAt) >= time.Duration(e.HardTimeout)*time.Second:
			out = append(out, Expired{Entry: e, Reason: of.RemovedHardTimeout})
		case e.IdleTimeout > 0 && now.Sub(e.lastHit) >= time.Duration(e.IdleTimeout)*time.Second:
			out = append(out, Expired{Entry: e, Reason: of.RemovedIdleTimeout})
		default:
			return false
		}
		return true
	})
	return out
}

// Expired pairs a removed entry with its removal reason.
type Expired struct {
	Entry  *Entry
	Reason of.FlowRemovedReason
}

// Stats aggregates the table's counters for switch-level statistics.
func (t *Table) Stats() of.SwitchStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := of.SwitchStats{FlowCount: uint32(len(t.entries))}
	for _, e := range t.entries {
		s.PacketsTotal += e.Packets
		s.BytesTotal += e.Bytes
	}
	return s
}

// FlowStats renders flow-level statistics rows for entries subsumed by m.
func (t *Table) FlowStats(m *of.Match) []of.FlowStatsEntry {
	entries := t.Entries(m)
	out := make([]of.FlowStatsEntry, len(entries))
	for i, e := range entries {
		out[i] = of.FlowStatsEntry{
			Match:    e.Match,
			Priority: e.Priority,
			Cookie:   e.Cookie,
			Packets:  e.Packets,
			Bytes:    e.Bytes,
		}
	}
	return out
}
