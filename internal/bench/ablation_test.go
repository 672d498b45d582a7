package bench

import (
	"strings"
	"testing"
)

func TestAblations(t *testing.T) {
	rows, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	studies := make(map[string]int)
	for _, r := range rows {
		studies[r.Study]++
		if r.Value <= 0 {
			t.Errorf("non-positive measurement: %+v", r)
		}
	}
	if studies["checking"] != 2 || studies["ksd-slots"] != 4 || studies["algorithm1"] != 3 {
		t.Errorf("study coverage = %v", studies)
	}
	out := FormatAblations(rows)
	for _, want := range []string{"compiled closure", "ksd-slots", "algorithm1"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
	t.Logf("\n%s", out)
}
