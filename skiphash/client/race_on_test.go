//go:build race

package client

// raceEnabled reports whether the race detector instruments this test
// binary; its shadow-memory bookkeeping allocates, so allocation-count
// assertions are meaningless under it.
const raceEnabled = true
