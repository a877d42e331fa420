//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in: race
// instrumentation allocates, so allocation bounds are only checked
// without it.
const raceEnabled = false
