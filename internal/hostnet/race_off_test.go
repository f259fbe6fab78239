//go:build !race

package hostnet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
