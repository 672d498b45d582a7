package flowtable

import (
	"testing"

	"sdnshield/internal/of"
)

// TestHotPathAllocations pins what a mediated insert costs the heap: a
// replace copies the actions and nothing else (the resident match is
// reused, the indexes hold no nodes of their own), and the two stateful
// attribute reads allocate nothing.
func TestHotPathAllocations(t *testing.T) {
	tbl := New(0)
	entries := make([]Entry, 256)
	for k := range entries {
		entries[k] = Entry{Match: ipDstMatch(10, byte(k%4), 0, byte(k), 32), Priority: 5,
			Actions: []of.Action{of.Output(1)}, Owner: []string{"a", "b"}[k%2]}
		mustAdd(t, tbl, entries[k])
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() { _ = tbl.Add(entries[i%len(entries)]); i++ }); n > 1 {
		t.Errorf("replace allocates %.1f objects, want 1 (the actions)", n)
	}
	wide := ipDstMatch(10, 1, 0, 0, 16) // covers no bit of the /32 group: the scan path
	if n := testing.AllocsPerRun(200, func() {
		tbl.ForeignOverlapOwner("a", entries[i%len(entries)].Match, 5)
		tbl.ForeignOverlapOwner("a", wide, 5)
		tbl.CountByOwner("a")
		i++
	}); n != 0 {
		t.Errorf("stateful attribute reads allocate %.1f objects, want 0", n)
	}
}

func TestSwapReturnsDisplacedRule(t *testing.T) {
	tbl := New(0)
	m := ipDstMatch(10, 0, 0, 0, 8)
	first := Entry{Match: m, Priority: 5, Actions: []of.Action{of.Output(1)}, Owner: "a", Cookie: 1}
	if _, replaced, err := tbl.Swap(first); err != nil || replaced {
		t.Fatalf("Swap of a new rule = replaced %v, err %v", replaced, err)
	}
	prev, replaced, err := tbl.Swap(Entry{Match: m, Priority: 5, Actions: []of.Action{of.Output(2)}, Owner: "b", Cookie: 2})
	if err != nil || !replaced {
		t.Fatalf("Swap over a resident rule = replaced %v, err %v", replaced, err)
	}
	if prev.Owner != "a" || prev.Cookie != 1 || prev.Actions[0].Port != 1 || !prev.Match.Equal(m) {
		t.Errorf("displaced rule = %+v", prev)
	}
	if tbl.CountByOwner("a") != 0 || tbl.CountByOwner("b") != 1 {
		t.Errorf("counts after owner change: a=%d b=%d", tbl.CountByOwner("a"), tbl.CountByOwner("b"))
	}
	// Putting the displaced rule back restores the table.
	mustAdd(t, tbl, prev)
	got := tbl.Entries(nil)
	if len(got) != 1 || got[0].Owner != "a" || got[0].Cookie != 1 || got[0].Actions[0].Port != 1 {
		t.Errorf("after restore: %+v", got)
	}
	checkIndexes(t, tbl)
}
