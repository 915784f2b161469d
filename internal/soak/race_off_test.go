//go:build !race

package soak

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
