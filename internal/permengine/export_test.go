package permengine

// setHeatOneIn sets the heat walk's rate and returns the previous one;
// 1 walks every numbered check, which makes heat counts exact.
func setHeatOneIn(k uint64) uint64 {
	prev := heatOneIn
	heatOneIn = k
	return prev
}
