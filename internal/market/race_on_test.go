//go:build race

package market

// raceEnabled reports a -race build: the detector allocates, so
// allocation budgets skip.
const raceEnabled = true
