//go:build race

package automata

// Under the race detector allocation counts stop meaning anything, as
// internal/graph's race_test.go explains, so the allocation checks skip.
func init() { raceEnabled = true }
