//go:build race

package tenant

// raceEnabled reports a -race build: the detector's shadow memory and
// instrumented channel operations allocate, so allocation budgets skip.
const raceEnabled = true
