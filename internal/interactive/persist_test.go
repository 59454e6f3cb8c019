package interactive_test

import (
	"bytes"
	"strings"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/interactive"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
)

func TestSampleSaveLoadRoundTrip(t *testing.T) {
	g, s := paperfix.G0()
	var buf bytes.Buffer
	if err := interactive.SaveSample(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	back, err := interactive.LoadSample(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Pos) != len(s.Pos) || len(back.Neg) != len(s.Neg) {
		t.Fatalf("round trip: %d+/%d-, want %d+/%d-",
			len(back.Pos), len(back.Neg), len(s.Pos), len(s.Neg))
	}
	for i := range s.Pos {
		if back.Pos[i] != s.Pos[i] {
			t.Fatal("positive ids changed")
		}
	}
}

func TestLoadSampleErrors(t *testing.T) {
	g, _ := paperfix.G0()
	cases := []string{
		"not json",
		`{"pos": ["ghost"], "neg": []}`,
		`{"pos": ["v1"], "neg": ["v1"]}`,
	}
	for _, c := range cases {
		if _, err := interactive.LoadSample(strings.NewReader(c), g); err == nil {
			t.Errorf("LoadSample(%q) unexpectedly succeeded", c)
		}
	}
}

func TestResumeContinuesSession(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	oracle := interactive.NewQueryOracle(snap, goal)

	// First session: stop after 2 labels.
	first := interactive.NewSession(snap, interactive.Options{
		Strategy: interactive.KS{}, Seed: 5, MaxInteractions: 2,
	})
	if _, err := first.Run(oracle, interactive.ExactMatch(snap, goal)); err != nil {
		t.Fatal(err)
	}
	partial := first.Sample()
	if partial.Size() != 2 {
		t.Fatalf("partial sample has %d labels", partial.Size())
	}

	// Persist, resume, finish.
	var buf bytes.Buffer
	if err := interactive.SaveSample(&buf, g, partial); err != nil {
		t.Fatal(err)
	}
	loaded, err := interactive.LoadSample(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := interactive.Resume(snap, loaded, interactive.Options{
		Strategy: interactive.KS{}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run(oracle, interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted != interactive.HaltSatisfied {
		t.Fatalf("resumed session halted %v", res.Halted)
	}
	// Total labels across both sessions stay within the graph size and the
	// resumed session did not relabel.
	total := partial.Size() + res.Labels()
	if total > g.NumNodes() {
		t.Fatalf("relabeling suspected: %d total labels", total)
	}
	if err := resumed.Sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRejectsInvalidSample(t *testing.T) {
	g, _ := paperfix.G0()
	bad := core.Sample{Pos: []int32{0}, Neg: []int32{0}}
	if _, err := interactive.Resume(g.Snapshot(), bad, interactive.Options{}); err == nil {
		t.Fatal("contradictory sample accepted")
	}
}
