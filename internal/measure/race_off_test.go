//go:build !race

package measure_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
