// Command perfbench is the repository's end-to-end benchmark. It serves
// a seeded synthetic graph from an in-process pathquery engine through
// the engine's HTTP handler — request decoding, Engine.Evaluate, plan
// and result caches, traversal, response encoding, with no sockets in
// between — and drives one workload against it with closed-loop
// clients. The traffic is the repository's own (fixture.go):
//
//	replay        BenchmarkReplayMixed's forged eight-class workload,
//	              read only, by its 16 clients: every entry repeats, so
//	              reads are result-cache hits;
//	replay-mixed  the same with BenchmarkReplayMixed's 2% mutation rate:
//	              each request is a one-edge write with probability 0.02,
//	              so publishes, group commit and cache maintenance run
//	              between the reads;
//	learn         the paper's static experiment: one client asking the
//	              learner, one task after another as experiments.RunStatic
//	              does, for a query from samples of the goals syn1..syn3
//	              on a graph that is the same for every seed.
//
// Set-up ingests the graph through /mutate in batches and, for the
// replay workloads, evaluates each forged entry once; it runs nine times
// and reports the median as setup_s. A warm-up of one second precedes
// the measured window. Sampled answers are checked against an
// independent reference evaluator (reference.go). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are end-to-end: the median operation latency
// (the median over the blocks of the measured window of each block's
// median), the operations per second all clients complete, and the
// set-up time.
// The 90th and 99th percentiles go to standard error only: on a shared
// machine they move by up to half between identical runs, too much to
// compare two versions by. With -trace 1 reads carry ?trace=1 and the
// metrics break the time down by layer, using the server's own stage
// spans. Every time is scaled to a reference machine speed
// (calibrate.go).
//
// Usage, from the root of the repository (run.sh builds the binary):
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/engine"
)

// traffic is one workload's clients and mix.
type traffic struct {
	clients int
	// mutateRate is the probability that a replay request is a write.
	mutateRate float64
	// learn makes the clients learn instead of replay.
	learn bool
}

var workloads = map[string]traffic{
	"replay":       {clients: 16},
	"replay-mixed": {clients: 16, mutateRate: 0.02},
	"learn":        {clients: 1, learn: true},
}

const (
	setupReps   = 9
	ingestBatch = 2000
	// blocks is the number of equal parts the measured window is cut
	// into, with a calibration between each two (calibrate.go).
	blocks = 20
	// samplesPerClient bounds the answers each client keeps for checking
	// (reservoir-sampled over the whole run).
	samplesPerClient = 16
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "replay, replay-mixed or learn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", cfg.workload)
		os.Exit(2)
	}
	res, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// inputs are everything the benchmark generates from the seed.
type inputs struct {
	base      []edge
	reads     []readReq
	readBody  [][]byte
	chooser   engine.WeightedChooser
	tasks     []learnTask
	taskBody  [][]byte
	reference *refGraph // base only
}

// learnGraphSeed makes the learn workload's graph. Like the paper's
// static experiment, which learns on one fixed dataset and varies the
// random samples, the learn workload serves the same graph for every
// seed and draws its samples from the seed. On graphs of different seeds
// the calibration picks different goals, among hundreds of about equally
// selective ones, and the learner's time moves with them.
const learnGraphSeed = 0

func makeInputs(cfg config, w traffic) (*inputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	graphRNG := rng
	if w.learn {
		graphRNG = rand.New(rand.NewSource(learnGraphSeed))
	}
	in := &inputs{base: genEdges(graphRNG, synthetic, synthetic.edges)}
	in.reference = newRefGraph()
	for _, e := range in.base {
		in.reference.add(e)
	}
	g := toGraph(in.base)
	if w.learn {
		tasks, err := learnTasks(rng, g, in.reference)
		if err != nil {
			return nil, err
		}
		in.tasks = tasks
		for _, t := range tasks {
			body, err := json.Marshal(t)
			if err != nil {
				return nil, err
			}
			in.taskBody = append(in.taskBody, body)
		}
		return in, nil
	}
	reads, chooser, err := forgeReads(g, cfg.seed)
	if err != nil {
		return nil, err
	}
	in.reads, in.chooser = reads, chooser
	for _, r := range reads {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		in.readBody = append(in.readBody, body)
	}
	return in, nil
}

// warmup is the unmeasured time the clients run before the window.
func warmup(cfg config) time.Duration {
	return min(time.Second, time.Duration(cfg.seconds*float64(time.Second)/10))
}

// Block numbers the clients read before each operation: warmBlock before
// the measured window opens, stopBlock once it has closed.
const (
	warmBlock = -1
	stopBlock = -2
)

func run(cfg config, w traffic) (*result, error) {
	in, err := makeInputs(cfg, w)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator(w.clients)
	if err != nil {
		return nil, err
	}

	// Set-up: a fresh server ingests the graph and, for the replay
	// workloads, answers each forged entry once. The last server is kept.
	// Each repetition is scaled by the calibrations around it.
	var srv *server
	var setup *client
	var setupTimes []float64
	before := cal.measure()
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.close()
		}
		runtime.GC()
		start := time.Now()
		srv = newServer()
		setup = newClient(cfg, in, srv, -1)
		setup.measuring = true
		if err := setup.ingest(); err != nil {
			srv.close()
			return nil, err
		}
		for i := range in.reads {
			if _, ok := setup.read(in.reads[i], in.readBody[i]); !ok {
				srv.close()
				return nil, fmt.Errorf("set-up: read %+v failed", in.reads[i])
			}
		}
		d := time.Since(start)
		after := cal.measure()
		setupTimes = append(setupTimes, d.Seconds()*scaleOf(before, after))
		before = after
	}
	defer srv.close()

	// Writes take the next edge of one sequence, whichever client
	// issues them.
	var nextWrite atomic.Int64
	clients := make([]*client, w.clients)
	for id := range clients {
		clients[id] = newClient(cfg, in, srv, int64(id))
	}
	// Each operation holds gate for reading; the window loop below takes
	// it for writing to pause the clients between blocks. block holds the
	// number of the current block.
	var gate sync.RWMutex
	var block atomic.Int32
	block.Store(warmBlock)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				gate.RLock()
				b := int(block.Load())
				if b == stopBlock {
					gate.RUnlock()
					return
				}
				c.measuring = b >= 0
				var d time.Duration
				var ok bool
				switch {
				case w.learn:
					k := i % len(in.tasks)
					d, ok = c.learn(&in.tasks[k], in.taskBody[k])
				case w.mutateRate > 0 && c.rng.Float64() < w.mutateRate:
					d, ok = c.write([]edge{mutation(int(nextWrite.Add(1) - 1))})
				default:
					k := in.chooser.Choose(c.rng.Float64())
					d, ok = c.read(in.reads[k], in.readBody[k])
				}
				if b >= 0 {
					c.record(b, d, ok)
				}
				gate.RUnlock()
			}
		}()
	}

	// The window: blocks, each preceded and the last followed by a
	// calibration with the clients paused. A block lasts from the
	// clients' release until the pause has stopped all of them.
	time.Sleep(warmup(cfg))
	blockLen := time.Duration(cfg.seconds * float64(time.Second) / blocks)
	var from counters
	var cals [blocks + 1]time.Duration
	var spans [blocks]time.Duration
	var released time.Time
	for b := 0; b <= blocks; b++ {
		gate.Lock()
		if b > 0 {
			spans[b-1] = time.Since(released)
		} else {
			from = snapshot(srv)
		}
		// The server's background cache maintenance finishes first, so
		// the calibration does not share the machine with it.
		srv.eng.FlushMaintenance()
		cals[b] = cal.measure()
		if b == blocks {
			block.Store(stopBlock)
		} else {
			block.Store(int32(b))
		}
		released = time.Now()
		gate.Unlock()
		if b < blocks {
			time.Sleep(blockLen)
		}
	}
	wg.Wait()
	to := snapshot(srv)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	if err := verify(in, append([]*client{setup}, clients...)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
		res.Correct = false
	}

	// Each block's median latency, scaled to the reference speed by the
	// calibrations around the block; p50_us is their median over the
	// blocks, so that a block the calibration misjudged does not move it.
	// ops_per_s pools the blocks instead: a learning task can take tens of
	// times the median, and a block's rate moves with the few it holds.
	var p50s, scales, lat []float64
	window := 0.0
	for b := range blocks {
		s := scaleOf(cals[b], cals[b+1])
		scales = append(scales, s)
		var block []float64
		for _, c := range clients {
			for _, d := range c.lat[b] {
				block = append(block, float64(d)*s)
			}
		}
		sort.Float64s(block)
		p50s = append(p50s, quantile(block, 0.50))
		window += spans[b].Seconds() * s
		lat = append(lat, block...)
	}
	sort.Float64s(lat)
	if !cfg.trace {
		res.Metrics["p50_us"] = metric{median(p50s) / 1e3, "us"}
		res.Metrics["ops_per_s"] = metric{float64(len(lat)) / window, "1/s"}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	} else {
		layerMetrics(res, setup, clients, from, to, median(scales))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations, %d failed, p90 %.4gus, p99 %.4gus, unscaled block p50s %.4gus, set-up %.3gs, calibration %v\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, quantile(lat, 0.90)/1e3, quantile(lat, 0.99)/1e3,
		unscaled(p50s, scales), setupTimes, cals)
	return res, nil
}

// unscaled returns the block medians in microseconds as measured, before
// calibration, for comparing the two on standard error.
func unscaled(p50s, scales []float64) []float64 {
	out := make([]float64, len(p50s))
	for i := range p50s {
		out[i] = p50s[i] / scales[i] / 1e3
	}
	return out
}

// counters is the part of GET /stats and the Go runtime the per-layer
// metrics difference over the measured window.
type counters struct {
	ResultHits     uint64 `json:"result_hits"`
	ResultMisses   uint64 `json:"result_misses"`
	PlanHits       uint64 `json:"plan_hits"`
	PlanMisses     uint64 `json:"plan_misses"`
	ResultRetained uint64 `json:"result_retained"`
	ResultRegrown  uint64 `json:"result_regrown"`
	ResultDropped  uint64 `json:"result_dropped"`
	Batches        uint64 `json:"wal_batches"`
	Mutations      uint64 `json:"wal_batched_mutations"`
	mallocs, bytes uint64
}

func snapshot(srv *server) counters {
	var c counters
	if status, body, _ := srv.call("GET", "/stats", nil); status == 200 {
		_ = json.Unmarshal(body, &c) // a missing field reads as zero
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	return c
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics fills the per-layer metrics: medians of the server's own
// stage spans and of the benchmark's spans around each handler call,
// over the measured window plus set-up (the ingest writes, and the
// compile and traversal spans the replay workloads mostly pay there),
// and counter ratios over the measured window. allocs_per_op and bytes_per_op are process-wide:
// they include the clients' request building and, in these traced runs,
// the decoding of every trace.
func layerMetrics(res *result, setup *client, clients []*client, from, to counters, scale float64) {
	var spans [numSpans][]int64
	learnK, learns, ops := 0, 0, 0
	for _, c := range append([]*client{setup}, clients...) {
		for s := range spans {
			spans[s] = append(spans[s], c.spans[s]...)
		}
		learnK += c.learnK
		learns += c.learns
		ops += c.attempted
	}
	names := [numSpans]string{"wire_us", "evaluate_us", "compile_us", "cache_lookup_us", "traverse_us", "mutate_us", "learn_us"}
	for s, v := range spans {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		res.Metrics[names[s]] = metric{quantile(v, 0.5) / 1e3 * scale, "us"}
	}
	hits, misses := to.ResultHits-from.ResultHits, to.ResultMisses-from.ResultMisses
	res.Metrics["result_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	phits, pmisses := to.PlanHits-from.PlanHits, to.PlanMisses-from.PlanMisses
	res.Metrics["plan_hit_ratio"] = metric{ratio(phits, phits+pmisses), "ratio"}
	pubs := to.Batches - from.Batches
	res.Metrics["mutations_per_publish"] = metric{ratio(to.Mutations-from.Mutations, pubs), "count"}
	res.Metrics["retained_per_publish"] = metric{ratio(to.ResultRetained-from.ResultRetained, pubs), "count"}
	res.Metrics["dropped_per_publish"] = metric{ratio(to.ResultDropped-from.ResultDropped, pubs), "count"}
	res.Metrics["allocs_per_op"] = metric{ratio(to.mallocs-from.mallocs, uint64(ops)), "count"}
	res.Metrics["bytes_per_op"] = metric{ratio(to.bytes-from.bytes, uint64(ops)), "bytes"}
	res.Metrics["learn_k"] = metric{ratio(uint64(learnK), uint64(learns)), "count"}
}
