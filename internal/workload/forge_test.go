package workload_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/datasets"
	"pathquery/internal/query"
	"pathquery/internal/workload"
)

func TestAbstractTableComplete(t *testing.T) {
	if len(workload.AbstractQueries) != 28 {
		t.Fatalf("table has %d classes, want 28", len(workload.AbstractQueries))
	}
	seen := map[string]bool{}
	for _, aq := range workload.AbstractQueries {
		if seen[aq.ID] {
			t.Fatalf("duplicate class %s", aq.ID)
		}
		seen[aq.ID] = true
		if aq.Slots < 1 || aq.Slots > 3 {
			t.Fatalf("%s: slots %d", aq.ID, aq.Slots)
		}
		if !workload.ValidClass(aq.ID) {
			t.Fatalf("%s not valid by ValidClass", aq.ID)
		}
	}
	if workload.ValidClass("AQ29") || workload.ValidClass("pwned") {
		t.Fatal("ValidClass accepted an unknown class")
	}
}

// Every desugared template must parse in the repo grammar once concrete
// labels are substituted for the slots.
func TestAbstractTemplatesParse(t *testing.T) {
	al := alphabet.NewSorted("author", "book", "cites")
	for _, aq := range workload.AbstractQueries {
		expr, err := aq.Render("author", "book", "cites")
		if err != nil {
			t.Fatalf("%s: render: %v", aq.ID, err)
		}
		if _, err := query.Parse(al, expr); err != nil {
			t.Fatalf("%s: template %q rendered to unparseable %q: %v", aq.ID, aq.Template, expr, err)
		}
	}
}

// Slot labels containing the slot letters themselves must substitute in a
// single pass — "author" must not have its 'a' re-replaced.
func TestRenderSinglePass(t *testing.T) {
	aq, _ := workload.AbstractByID("AQ2") // a·b·c
	got, err := aq.Render("cab", "abc", "bca")
	if err != nil {
		t.Fatal(err)
	}
	if got != "cab·abc·bca" {
		t.Fatalf("render = %q, want cab·abc·bca", got)
	}
}

func TestForgeDeterministic(t *testing.T) {
	g := benchGraph()
	snap := g.Snapshot()
	cfg := workload.ForgeConfig{Seed: 7}
	f1, err := workload.Forge(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := workload.Forge(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := f1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := f2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same graph + same seed forged different files")
	}
	// A different seed must actually change something.
	f3, err := workload.Forge(snap, workload.ForgeConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	if err := f3.Write(&b3); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("different seeds forged byte-identical files")
	}
}

func TestForgeEntries(t *testing.T) {
	g := benchGraph()
	s := g.Snapshot()
	f, err := workload.Forge(s, workload.ForgeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.Header.Format != workload.FormatVersion {
		t.Fatalf("header format %q", f.Header.Format)
	}
	if f.Header.Graph.Fingerprint != workload.Fingerprint(s) {
		t.Fatal("header fingerprint does not match the snapshot")
	}
	classes := map[string]bool{}
	anchored := 0
	for _, e := range f.Entries {
		if !workload.ValidClass(e.Class) {
			t.Fatalf("entry with unknown class %q", e.Class)
		}
		classes[e.Class] = true
		q, err := query.Parse(s.Alphabet(), e.Expr)
		if err != nil {
			t.Fatalf("%s: forged unparseable expr %q: %v", e.Class, e.Expr, err)
		}
		if e.Selectivity <= 0 || e.Selectivity > 1 {
			t.Fatalf("%s: selectivity %v", e.Class, e.Selectivity)
		}
		if e.Band == "" {
			t.Fatalf("%s: entry without band", e.Class)
		}
		switch e.Tier {
		case workload.TierTemplate:
			if e.From != "" {
				t.Fatalf("%s: template entry carries anchor %q", e.Class, e.From)
			}
		case workload.TierReal:
			anchored++
			if e.From == "" {
				t.Fatalf("%s: real entry without anchor", e.Class)
			}
			v, ok := g.NodeByName(e.From)
			if !ok {
				t.Fatalf("%s: anchor %q not in graph", e.Class, e.From)
			}
			// The anchor must have at least one out-edge the query can
			// start with — that is what connectivity ranking promises.
			if ans := q.Evaluate(s); ans.Selectivity() > 0 && len(s.OutEdges(v)) == 0 {
				t.Fatalf("%s: anchor %q has no out-edges", e.Class, e.From)
			}
		default:
			t.Fatalf("%s: unknown tier %q", e.Class, e.Tier)
		}
	}
	// A scale-free graph with 12 frequent-ish labels should instantiate the
	// vast majority of the 28 classes; require at least 20 to catch a
	// broken instantiation loop without being flaky about the tail.
	if len(classes) < 20 {
		t.Fatalf("only %d classes instantiated", len(classes))
	}
	if anchored == 0 {
		t.Fatal("no tier-3 anchored entries forged")
	}
}

func TestFileRoundTripFixedPoint(t *testing.T) {
	g := benchGraph()
	f, err := workload.Forge(g.Snapshot(), workload.ForgeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := f.Write(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := workload.Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := parsed.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Write→Read→Write is not a fixed point")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := workload.Read(strings.NewReader("")); err == nil {
		t.Fatal("empty file accepted")
	}
	if _, err := workload.Read(strings.NewReader(`{"format":"pathquery-workload/99"}` + "\n")); err == nil {
		t.Fatal("unknown format version accepted")
	}
	hdr := `{"format":"pathquery-workload/1","seed":1,"graph":{"fingerprint":"x","nodes":1,"edges":1,"labels":1},"params":{"classes":["AQ1"],"templates_per_class":1,"anchors_per_template":0,"top_degree":1}}`
	bad := hdr + "\n" + `{"class":"EVIL","tier":"template","expr":"a","semantics":"nodes","band":"broad","selectivity":0.5}` + "\n"
	if _, err := workload.Read(strings.NewReader(bad)); err == nil {
		t.Fatal("entry with unknown class accepted")
	}
}

func TestForgeClassSubset(t *testing.T) {
	g := benchGraph()
	snap := g.Snapshot()
	f, err := workload.Forge(snap, workload.ForgeConfig{Seed: 3, Classes: []string{"AQ1", "AQ28"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.Entries {
		if e.Class != "AQ1" && e.Class != "AQ28" {
			t.Fatalf("class %q outside requested subset", e.Class)
		}
	}
	if _, err := workload.Forge(snap, workload.ForgeConfig{Seed: 3, Classes: []string{"AQ0"}}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestForgePinned pins the bytes of one forged file. Replay workloads
// (the benchmark's among them) read their queries and anchors from Forge,
// so a change to the forge that moves any template, anchor or band shows
// here, not as a silent shift in what a replay measures.
func TestForgePinned(t *testing.T) {
	f, err := workload.Forge(datasets.Synthetic(300, 7).Snapshot(), workload.ForgeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := f.Write(&b); err != nil {
		t.Fatal(err)
	}
	const want = "d395b2e50cba2d6ed276b3fb44e051ddcd22a6c127516c6ffb4196c325b7f59d"
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != want {
		t.Fatalf("forged file SHA-256 = %s, want %s (%d bytes, %d entries)", got, want, b.Len(), len(f.Entries))
	}
}
