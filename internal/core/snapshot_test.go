package core_test

import (
	"math/rand"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
)

// TestLearnRejectsOutOfRangeIDs is the regression test for the CSR-scan
// panic: example ids outside the snapshot's node range must surface as
// validation errors from every learner entry point.
func TestLearnRejectsOutOfRangeIDs(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	bad := graph.NodeID(snap.NumNodes())
	cases := []func() error{
		func() error {
			_, err := core.Learn(snap, core.Sample{Pos: []graph.NodeID{bad}}, core.Options{})
			return err
		},
		func() error {
			_, err := core.Learn(snap, core.Sample{Pos: []graph.NodeID{0}, Neg: []graph.NodeID{-1}}, core.Options{})
			return err
		},
		func() error {
			_, err := core.LearnBinary(snap, core.PairSample{Pos: []core.Pair{{From: 0, To: bad}}}, core.Options{})
			return err
		},
		func() error {
			_, err := core.LearnNary(snap, core.TupleSample{Pos: [][]graph.NodeID{{0, 1, bad}}}, core.Options{})
			return err
		},
	}
	for i, run := range cases {
		if err := run(); err == nil {
			t.Errorf("case %d: out-of-range example accepted", i)
		}
	}
	if err := (core.Sample{Pos: []graph.NodeID{bad}}).ValidateOn(snap); err == nil {
		t.Error("Sample.ValidateOn accepted out-of-range id")
	}
	if err := (core.PairSample{Neg: []core.Pair{{From: -2, To: 0}}}).ValidateOn(snap); err == nil {
		t.Error("PairSample.ValidateOn accepted negative id")
	}
	if err := (core.TupleSample{Pos: [][]graph.NodeID{{0, bad}}}).ValidateOn(snap); err == nil {
		t.Error("TupleSample.ValidateOn accepted out-of-range id")
	}
}

// TestLearnParallelMatchesSerial cross-checks the worker-shard fan-out of
// the per-positive SCP searches against the serial path on randomized
// samples: same snapshot, same sample, same learned language.
func TestLearnParallelMatchesSerial(t *testing.T) {
	g := datasets.Synthetic(400, 7)
	snap := g.Snapshot()
	qs := datasets.SynQueriesOn(snap)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		goal := qs[trial%len(qs)].Query
		pos, neg := datasets.RandomSample(snap, goal, 0.1, rng)
		s := core.Sample{Pos: pos, Neg: neg}
		serial, errS := core.LearnDetailed(snap, s, core.Options{Workers: 1})
		parallel, errP := core.LearnDetailed(snap, s, core.Options{Workers: 8})
		if (errS == nil) != (errP == nil) {
			t.Fatalf("trial %d: serial err %v, parallel err %v", trial, errS, errP)
		}
		if errS != nil {
			continue
		}
		if !serial.Query.EquivalentTo(parallel.Query) {
			t.Fatalf("trial %d: serial learned %v, parallel %v", trial, serial.Query, parallel.Query)
		}
		if serial.K != parallel.K || len(serial.SCPs) != len(parallel.SCPs) {
			t.Fatalf("trial %d: diagnostics diverge: k %d/%d, scps %d/%d",
				trial, serial.K, parallel.K, len(serial.SCPs), len(parallel.SCPs))
		}
	}
}
