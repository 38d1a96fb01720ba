//go:build race

package fault

// raceEnabled caps the FI-scale differentials, whose reference runs
// are very slow under the race detector.
const raceEnabled = true
