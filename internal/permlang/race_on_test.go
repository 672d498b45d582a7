//go:build race

package permlang

// raceEnabled reports a -race build: the detector allocates and sync.Pool
// drops items at random, so allocation budgets skip.
const raceEnabled = true
