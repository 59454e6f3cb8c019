// Command pqinteractive runs the paper's interactive scenario (Section 4)
// on a graph: the session proposes nodes, a user labels them, and learning
// repeats until the learned query is satisfactory.
//
// With -goal the user is simulated by an oracle holding the goal query
// (how the paper runs its experiments); without it, labels are read from
// stdin: the tool shows each proposed node with its neighborhood and asks
// y/n.
//
//	pqinteractive -graph g.tsv -goal '(a+b)·c*' -strategy kS
//	pqinteractive -graph g.tsv               # interactive prompts
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pathquery"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
)

// stdinOracle asks the human at the terminal, showing the same
// neighborhood the session records for the proposal (step 4 of Figure 9).
type stdinOracle struct {
	sess *pathquery.Session
	in   *bufio.Reader
}

func (o *stdinOracle) Label(nu pathquery.NodeID) bool {
	snap := o.sess.Snapshot()
	fmt.Printf("\nnode %q — its neighborhood (radius %d):\n", snap.NodeName(nu), o.sess.K())
	for _, v := range o.sess.Neighborhood(nu) {
		for _, e := range snap.OutEdges(v) {
			fmt.Printf("  %s --%s--> %s\n",
				snap.NodeName(v), snap.Alphabet().Name(e.Sym), snap.NodeName(e.To))
		}
	}
	for {
		fmt.Printf("select %q? [y/n] ", snap.NodeName(nu))
		line, err := o.in.ReadString('\n')
		if err != nil {
			log.Fatal("stdin closed")
		}
		switch strings.ToLower(strings.TrimSpace(line)) {
		case "y", "yes", "+":
			return true
		case "n", "no", "-":
			return false
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqinteractive: ")
	graphPath := flag.String("graph", "", "graph TSV file (required)")
	goalSrc := flag.String("goal", "", "simulate the user with this goal query")
	strategyName := flag.String("strategy", "kS", "kR | kS")
	seed := flag.Int64("seed", 1, "session seed")
	maxLabels := flag.Int("max-labels", 0, "interaction budget (0 = |V|)")
	verbose := flag.Bool("v", false, "log every proposal/label/learned query")
	resumePath := flag.String("resume", "", "resume from a saved session sample")
	savePath := flag.String("save-session", "", "write the final sample here")
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.ReadTSV(f, nil)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	snap := g.Snapshot()
	var strategy pathquery.Strategy
	switch *strategyName {
	case "kR":
		strategy = interactive.KR{}
	case "kS":
		strategy = interactive.KS{}
	default:
		log.Fatalf("unknown strategy %q", *strategyName)
	}

	opts := pathquery.SessionOptions{
		Strategy:        strategy,
		Seed:            *seed,
		MaxInteractions: *maxLabels,
	}
	if *verbose {
		opts.Observer = interactive.LogObserver{G: g, W: os.Stderr}
	}
	var sess *pathquery.Session
	if *resumePath != "" {
		rf, err := os.Open(*resumePath)
		if err != nil {
			log.Fatal(err)
		}
		saved, err := interactive.LoadSample(rf, g)
		rf.Close()
		if err != nil {
			log.Fatal(err)
		}
		sess, err = interactive.Resume(snap, saved, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed with %d labels\n", saved.Size())
	} else {
		sess = pathquery.NewSession(snap, opts)
	}

	var oracle pathquery.Oracle
	var halt pathquery.HaltCondition
	if *goalSrc != "" {
		goal, err := pathquery.ParseQuery(g.Alphabet(), *goalSrc)
		if err != nil {
			log.Fatal(err)
		}
		oracle = pathquery.NewQueryOracle(snap, goal)
		halt = pathquery.ExactMatch(snap, goal)
		fmt.Printf("simulating a user with goal %v (selects %d nodes)\n",
			goal, goal.Evaluate(snap).Count())
	} else {
		oracle = &stdinOracle{sess: sess, in: bufio.NewReader(os.Stdin)}
		// Human sessions halt when the user is out of informative nodes or
		// interrupts; the learned query is printed after every label.
		halt = func(q *pathquery.Query) bool { return false }
	}

	res, err := sess.Run(oracle, halt)
	if err != nil {
		log.Fatal(err)
	}
	if *savePath != "" {
		sf, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := interactive.SaveSample(sf, g, sess.Sample()); err != nil {
			log.Fatal(err)
		}
		if err := sf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("session sample saved to", *savePath)
	}
	fmt.Printf("\nsession over (%v) after %d labels (%.2f%% of nodes)\n",
		res.Halted, res.Labels(), 100*res.LabelFraction(snap))
	if res.Query != nil {
		fmt.Println("learned query:", res.Query)
		fmt.Println("selected nodes:")
		for _, v := range res.Query.Evaluate(snap).Nodes() {
			fmt.Println("  ", snap.NodeName(v))
		}
	} else {
		fmt.Println("no query learned (not enough consistent examples)")
	}
}
