//go:build race

package fleet

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
