package obs

import "testing"

// TestProvidersUnregisterRemovesOnlyItsOwnEntry: a name registered again
// replaces the entry, and the replaced registration's unregister leaves
// the successor in place.
func TestProvidersUnregisterRemovesOnlyItsOwnEntry(t *testing.T) {
	var p Providers[func() interface{}]
	unregOld := p.Register("shield", func() interface{} { return "old" })
	unregNew := p.Register("shield", func() interface{} { return "new" })
	p.Register("other", func() interface{} { return 1 })
	if got := Pull(&p); len(got) != 2 || got["shield"] != "new" || got["other"] != 1 {
		t.Fatalf("pull = %v, want shield=new and other=1", got)
	}
	unregOld()
	if got := Pull(&p)["shield"]; got != "new" {
		t.Fatalf("after the replaced entry's unregister, shield = %v, want new", got)
	}
	unregNew()
	if _, ok := p.Snapshot()["shield"]; ok {
		t.Fatal("unregister left its own entry in place")
	}
}
