//go:build race

package machine

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
