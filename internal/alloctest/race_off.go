//go:build !race

package alloctest

// RaceEnabled reports whether the race detector instruments this binary.
const RaceEnabled = false
