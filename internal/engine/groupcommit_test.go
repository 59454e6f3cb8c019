package engine

// Group-commit tests: concurrent Mutate callers must coalesce into
// multi-mutation WAL batches — one Append, one published epoch, every
// waiter acked with that epoch — without changing what the engine
// serves. The slowLog stands in for a real fsyncing WAL so the leader
// predictably accumulates followers; the concurrent-writers test is the
// -race stress for the combining lock plus read-time cache revalidation
// racing saturated writers.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathquery/internal/graph"
)

// slowLog is a MutationLog whose Append takes ~1ms — the latency shape
// of a real fsync — and records every batch it sees.
type slowLog struct {
	mu      sync.Mutex
	appends int
	epochs  []uint64
	sizes   []int
	fail    atomic.Bool
}

func (l *slowLog) Append(epoch uint64, edges []EdgeSpec) error {
	time.Sleep(time.Millisecond)
	if l.fail.Load() {
		return fmt.Errorf("slowLog: injected append failure")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appends++
	l.epochs = append(l.epochs, epoch)
	l.sizes = append(l.sizes, len(edges))
	return nil
}

func (l *slowLog) Committed(*graph.Snapshot) {}

// TestGroupCommitConcurrentWriters drives 8 writer goroutines and 4
// readers against one durable engine. Asserts: every mutation is acked
// with the epoch of the batch that carried it; batches coalesce (fewer
// WAL appends than mutations); epochs advance by exactly one per batch;
// and the final answers are identical to a from-scratch engine given the
// same edge multiset. Run under -race: the readers revalidate cached
// answers while the writer lanes publish.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	const writers, perWriter, readers = 8, 25, 4
	log := &slowLog{}
	e := New(buildFixture(), Options{Log: log})
	base := e.Epoch()

	queries := []string{"tram·cinema", "bus*", "(tram+bus)·cinema"}
	for _, q := range queries {
		if _, err := evalNodes(e, q); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := evalNodes(e, queries[rng.Intn(len(queries))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := e.Mutate([]EdgeSpec{{
					From:  fmt.Sprintf("g%d_%d", w, i),
					Label: "tram",
					To:    fmt.Sprintf("g%d_%d", w, i+1),
				}})
				if err != nil {
					t.Errorf("writer %d mutation %d: %v", w, i, err)
					return
				}
				if res.Epoch <= base {
					t.Errorf("writer %d mutation %d: acked epoch %d not after base %d", w, i, res.Epoch, base)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := e.Stats()
	const total = writers * perWriter
	if st.WalBatchedMutations != total {
		t.Fatalf("WalBatchedMutations = %d, want %d", st.WalBatchedMutations, total)
	}
	if st.WalBatches >= total {
		t.Fatalf("WalBatches = %d out of %d mutations: no coalescing happened", st.WalBatches, total)
	}
	if uint64(log.appends) != st.WalBatches {
		t.Fatalf("log saw %d appends, engine counted %d batches", log.appends, st.WalBatches)
	}
	if got, want := e.Epoch(), base+st.WalBatches; got != want {
		t.Fatalf("epoch %d after %d batches from base %d, want %d", got, st.WalBatches, base, want)
	}
	// The log's epochs must be consecutive and its record sizes must sum
	// to the mutation count — the recovery-equivalence invariant the
	// store's batch crash sweep relies on.
	edgeSum := 0
	for i, ep := range log.epochs {
		if ep != base+1+uint64(i) {
			t.Fatalf("append %d logged epoch %d, want %d", i, ep, base+1+uint64(i))
		}
		edgeSum += log.sizes[i]
	}
	if edgeSum != total {
		t.Fatalf("logged records carry %d edges, want %d", edgeSum, total)
	}

	// Answer equivalence against a from-scratch engine fed the same
	// edges (order within the multiset is irrelevant to the graph).
	ref := New(buildFixture(), Options{})
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := ref.Mutate([]EdgeSpec{{
				From:  fmt.Sprintf("g%d_%d", w, i),
				Label: "tram",
				To:    fmt.Sprintf("g%d_%d", w, i+1),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range queries {
		got, err := evalNodes(e, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evalNodes(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		// Node ids are assigned in arrival order, which differs between
		// the racing engine and the sequential reference — compare the
		// selections as name sets.
		g, r := got.Names(), want.Names()
		sort.Strings(g)
		sort.Strings(r)
		if len(g) != len(r) {
			t.Fatalf("%q: %d nodes, from-scratch %d", q, len(g), len(r))
		}
		for i := range r {
			if g[i] != r[i] {
				t.Fatalf("%q: name[%d] = %s, from-scratch %s", q, i, g[i], r[i])
			}
		}
	}
	e.Close()
	ref.Close()
}

// TestGroupCommitAppendFailureFailsWholeBatch: when the WAL append for a
// batch fails, every batched caller gets the durability error and the
// graph is untouched — no half-applied batch, no epoch advance.
func TestGroupCommitAppendFailureFailsWholeBatch(t *testing.T) {
	log := &slowLog{}
	log.fail.Store(true)
	e := New(buildFixture(), Options{Log: log})
	before := e.Epoch()

	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = e.Mutate([]EdgeSpec{{From: "fx", Label: "tram", To: fmt.Sprintf("fy%d", w)}})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Fatalf("writer %d: append failure not surfaced", w)
		}
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.Code != "durability_error" {
			t.Fatalf("writer %d: error %v, want durability_error", w, err)
		}
	}
	if got := e.Epoch(); got != before {
		t.Fatalf("epoch advanced to %d across a failed batch (was %d)", got, before)
	}
	if st := e.Stats(); st.Mutations != 0 || st.WalBatches != 0 {
		t.Fatalf("failed batch counted: %+v", st)
	}
	// The engine stays serviceable: a later successful batch commits.
	log.fail.Store(false)
	res, err := e.Mutate([]EdgeSpec{{From: "fx", Label: "tram", To: "fz"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != before+1 {
		t.Fatalf("recovered mutation published epoch %d, want %d", res.Epoch, before+1)
	}
	e.Close()
}
