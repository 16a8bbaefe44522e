// Package shard is a name kept for the benchmark's shard rung
// (benchmark/ladder.go), which compiles against shard.New. The skip hash
// is one ordered structure, core.Map, with no partition in front of it.
// The package stays until a change to benchmark/ retires it.
package shard

import "repro/internal/core"

// New returns core.New(less, hash, cfg). It stays until a change to
// benchmark/ retires it.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg core.Config) *core.Map[K, V] {
	return core.New[K, V](less, hash, cfg)
}
