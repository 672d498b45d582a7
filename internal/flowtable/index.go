package flowtable

import (
	"math/rand/v2"

	"sdnshield/internal/of"
)

// The table's secondary indexes. Invariants, all under Table.mu:
//
//   - exact: every resident entry is on exactly one chain, the one keyed
//     by exactKey of its (priority, match); Add's replace rule keeps at
//     most one entry per (priority, match), so a chain longer than one is
//     a hash collision and every hit is verified with Match.Equal.
//   - owners: owners[o] is the number of resident entries with Owner o;
//     no key maps to zero.
//   - tuples: every resident entry is on exactly one bucket chain of the
//     group keyed by its mask tuple; no group is empty. Entries of one
//     bucket share a masked-value hash: equal matches at different
//     priorities, or collisions.
//
// Index nodes are the entries themselves (intrusive next pointers) and
// keys are 8-byte hashes, so the indexes never hold a second copy of an
// of.Match and a replace, which changes neither key, touches no map.

// nFields is the number of match fields; tuples index them by Field-1.
const nFields = int(of.FieldTPDst)

// tuple holds one word per match field: the masks that key a tuple
// group, or a match's values.
type tuple [nFields]uint64

// tupleGroup is the set of resident rules carrying exactly one mask tuple.
type tupleGroup struct {
	masks   tuple
	byValue map[uint64]*Entry // valueKey(values) -> chain via tupleNext
}

// unpack reads a match's values and masks into tuples.
func unpack(m *of.Match) (values, masks tuple) {
	for i := range masks {
		values[i], masks[i] = m.Get(of.Field(i + 1))
	}
	return values, masks
}

// hashSeed keeps bucket placement from being predictable to an app that
// picks its matches to collide.
var hashSeed = rand.Uint64()

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// Field words are at most 48 bits wide, so the field index rides in the
// top byte of the word it tags.
const fieldTagShift = 56

// exactKey hashes a rule's identity: priority, values and masks.
func exactKey(priority uint16, values, masks *tuple) uint64 {
	h := mix(hashSeed, uint64(priority))
	for i, mask := range masks {
		if mask != 0 {
			h = mix(mix(h, mask|uint64(i)<<fieldTagShift), values[i])
		}
	}
	return h
}

// valueKey hashes values under a group's masks. For a resident rule of
// the group that is its own values; for a query it is the only values a
// rule of the group can have and still overlap it, provided the query
// constrains every bit the group does.
func valueKey(values, masks *tuple) uint64 {
	h := hashSeed
	for i, mask := range masks {
		if mask != 0 {
			h = mix(h, values[i]&mask|uint64(i)<<fieldTagShift)
		}
	}
	return h
}

// covers reports whether query masks constrain every bit group masks do.
func covers(query, group *tuple) bool {
	for i, mask := range group {
		if mask&^query[i] != 0 {
			return false
		}
	}
	return true
}

// before reports whether a precedes b in table order.
func before(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// findExact returns the resident rule with exactly this priority and
// match, or nil. key is exactKey of the pair.
func (t *Table) findExact(key uint64, priority uint16, m *of.Match) *Entry {
	for e := t.exact[key]; e != nil; e = e.exactNext {
		if e.Priority == priority && e.Match.Equal(m) {
			return e
		}
	}
	return nil
}

func (t *Table) lookupExact(priority uint16, m *of.Match) *Entry {
	values, masks := unpack(m)
	return t.findExact(exactKey(priority, &values, &masks), priority, m)
}

// link enters a new resident rule into the three indexes.
func (t *Table) link(e *Entry, key uint64, values, masks *tuple) {
	e.exactNext = t.exact[key]
	t.exact[key] = e
	t.owners[e.Owner]++
	g := t.tuples[*masks]
	if g == nil {
		g = &tupleGroup{masks: *masks, byValue: make(map[uint64]*Entry)}
		t.tuples[*masks] = g
	}
	vk := valueKey(values, masks)
	e.tupleNext = g.byValue[vk]
	g.byValue[vk] = e
}

// unlink removes a rule that is leaving the table from the three indexes.
func (t *Table) unlink(e *Entry) {
	values, masks := unpack(e.Match)
	unchain(t.exact, exactKey(e.Priority, &values, &masks),
		func(x *Entry) **Entry { return &x.exactNext }, e)
	t.disown(e.Owner)
	g := t.tuples[masks]
	unchain(g.byValue, valueKey(&values, &masks),
		func(x *Entry) **Entry { return &x.tupleNext }, e)
	if len(g.byValue) == 0 {
		delete(t.tuples, masks)
	}
}

// unchain takes e off the chain heads[key], linked through next, and
// drops the key when the chain empties.
func unchain(heads map[uint64]*Entry, key uint64, next func(*Entry) **Entry, e *Entry) {
	head := heads[key]
	if head == e {
		head = *next(e)
	} else {
		p := head
		for *next(p) != e {
			p = *next(p)
		}
		*next(p) = *next(e)
	}
	*next(e) = nil
	if head == nil {
		delete(heads, key)
	} else {
		heads[key] = head
	}
}

func (t *Table) disown(owner string) {
	if t.owners[owner]--; t.owners[owner] == 0 {
		delete(t.owners, owner)
	}
}

// eachOverlap calls visit for every resident rule overlapping m, in no
// particular order: tuple-space search. A group whose every constrained
// bit the query also constrains can only overlap through rules whose
// values equal the query's under the group's masks, so one bucket probe
// finds them; any other group is scanned. Either way Match.Overlaps has
// the last word.
func (t *Table) eachOverlap(m *of.Match, visit func(*Entry)) {
	values, masks := unpack(m)
	for _, g := range t.tuples {
		if covers(&masks, &g.masks) {
			for e := g.byValue[valueKey(&values, &g.masks)]; e != nil; e = e.tupleNext {
				if e.Match.Overlaps(m) {
					visit(e)
				}
			}
			continue
		}
		for _, e := range g.byValue {
			for ; e != nil; e = e.tupleNext {
				if e.Match.Overlaps(m) {
					visit(e)
				}
			}
		}
	}
}
