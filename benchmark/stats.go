package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between closest ranks. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the median of v (NaN when empty).
func median(v []float64) float64 {
	return percentile(sortedCopy(v), 0.5)
}

// quartiles returns the first quartile, median and third quartile of v.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	return percentile(s, 0.25), percentile(s, 0.5), percentile(s, 0.75)
}

// reported is one metric as the result files carry it: the value (a
// median across rounds, or an exact count), the quartiles across rounds
// and how many rounds stand behind it.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// summarize digests one per-round statistic across rounds.
func summarize(v []float64, unit string) reported {
	q1, q2, q3 := quartiles(v)
	return reported{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(v)}
}
