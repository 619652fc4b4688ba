//go:build !race

package serve

// raceEnabled reports whether the race detector is instrumenting this
// test binary.
const raceEnabled = false
