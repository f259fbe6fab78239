//go:build race

package hostnet

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what it is given, so a pooled writer is
// sometimes made anew and an allocation pin reads high.
const raceEnabled = true
