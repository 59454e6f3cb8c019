package interactive_test

import (
	"bytes"
	"strings"
	"testing"

	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
)

// countingObserver tallies events.
type countingObserver struct {
	interactive.NopObserver
	proposed, labeled, learned int
	lastNode                   graph.NodeID
}

func (c *countingObserver) Proposed(nu graph.NodeID, neighborhood []graph.NodeID, k int) {
	c.proposed++
	c.lastNode = nu
	if len(neighborhood) == 0 {
		panic("empty neighborhood")
	}
	if k < 2 {
		panic("k below the schedule's start")
	}
}

func (c *countingObserver) Labeled(nu graph.NodeID, positive bool) {
	if nu != c.lastNode {
		panic("labeled a different node than proposed")
	}
	c.labeled++
}

func (c *countingObserver) Learned(q *query.Query) { c.learned++ }

func TestObserverReceivesAllEvents(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	obs := &countingObserver{}
	sess := interactive.NewSession(snap, interactive.Options{
		Strategy: interactive.KS{},
		Seed:     1,
		Observer: obs,
	})
	res, err := sess.Run(interactive.NewQueryOracle(snap, goal), interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	n := res.Labels()
	if obs.proposed != n || obs.labeled != n || obs.learned != n {
		t.Fatalf("events proposed=%d labeled=%d learned=%d, want all %d",
			obs.proposed, obs.labeled, obs.learned, n)
	}
}

func TestLogObserverTranscript(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "a")
	var buf bytes.Buffer
	sess := interactive.NewSession(snap, interactive.Options{
		Strategy: interactive.KR{},
		Seed:     2,
		Observer: interactive.LogObserver{G: g, W: &buf},
	})
	if _, err := sess.Run(interactive.NewQueryOracle(snap, goal),
		interactive.ExactMatch(snap, goal)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"propose ", "label ", "learned:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestNopObserverIsSilent(t *testing.T) {
	// NopObserver implements the full interface; a session with it behaves
	// identically to one without an observer.
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	run := func(obs interactive.Observer) int {
		sess := interactive.NewSession(snap, interactive.Options{
			Strategy: interactive.KS{},
			Seed:     3,
			Observer: obs,
		})
		res, err := sess.Run(interactive.NewQueryOracle(snap, goal), interactive.ExactMatch(snap, goal))
		if err != nil {
			t.Fatal(err)
		}
		return res.Labels()
	}
	if run(nil) != run(interactive.NopObserver{}) {
		t.Fatal("observer changed session behavior")
	}
}
