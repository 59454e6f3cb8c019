package core_test

import (
	"testing"

	"pathquery/internal/core"
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
