//go:build !race

package client

// See race_on_test.go.
const raceEnabled = false
