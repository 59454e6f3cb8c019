package main

// Machine-speed calibration. The benchmark runs on shared machines whose
// speed drifts by tens of percent for seconds at a time, as neighbours
// come and go. Between blocks of the measured window, with the client
// paused and the server's background work finished, the benchmark times
// a fixed task of its own — a product-graph search of the reference
// evaluator over a fixed graph, the same kind of work the server does,
// but none of the server's code — and scales the block's timings by how
// fast the machine ran that task. Set-up repetitions are scaled the
// same way. The task runs on as many goroutines at once as the workload
// keeps busy, up to GOMAXPROCS, so that a neighbour taking one of the
// machine's processors slows the task as much as it slows the workload.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// calReps is how many times one calibration runs the task; the
	// fastest run counts, so a stray garbage collection or preemption
	// does not read as a slow machine.
	calReps = 10
	// calNominal is the task's time at the reference speed the timing
	// metrics are reported in, about what the fastest of calReps runs
	// takes on an idle 2-vCPU Xeon virtual machine. It fixes the unit
	// only: two versions of the program compare the same either way.
	calNominal = 1000 * time.Microsecond
)

// calibrator holds the fixed calibration task: a graph and query that do
// not depend on the seed.
type calibrator struct {
	g    *refGraph
	a    *refNFA
	par  int
	sink atomic.Int64
}

// newCalibrator makes the task, to run on par goroutines at once.
func newCalibrator(par int) (*calibrator, error) {
	rng := rand.New(rand.NewSource(1))
	spec := graphSpec{nodes: 2000, edges: 8000, labels: 16}
	g := newRefGraph()
	for _, e := range genEdges(rng, spec, spec.edges) {
		g.add(e)
	}
	a, err := g.compile("(l00+l01)*.l02.(l03+l04)*")
	if err != nil {
		return nil, err
	}
	return &calibrator{g: g, a: a, par: max(1, min(par, runtime.GOMAXPROCS(0)))}, nil
}

// measure returns the fastest of calReps runs of the task. It collects
// garbage first, so that no collection the program started runs
// alongside the task and reads as a slow machine.
func (c *calibrator) measure() time.Duration {
	runtime.GC()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < calReps; i++ {
		start := time.Now()
		var wg sync.WaitGroup
		for range c.par {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.sink.Add(int64(count(c.g.selectNodes(c.a))))
			}()
		}
		wg.Wait()
		best = min(best, time.Since(start))
	}
	return best
}

// scaleOf is the factor that converts a time measured between two
// calibrations to the reference speed.
func scaleOf(before, after time.Duration) float64 {
	return 2 * float64(calNominal) / float64(before+after)
}
