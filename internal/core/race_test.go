//go:build race

package core_test

// Under the race detector sync.Pool drops a share of its Puts on
// purpose, so pooled scratch is reallocated at random and allocation
// counts stop meaning anything.
func init() { raceEnabled = true }
