package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/alphabet"
	"pathquery/internal/query"
)

// cachedPlan is a compiled, interned query: the canonical DFA with its
// evaluation plan (query.Query.Plan — transition tables, reverse DFA,
// reachability sets, symbol filters) plus its language-level cache key and
// serving counters. Plans are immutable and shared by every request with
// an equivalent query; compilation happens once at intern time, so no
// request ever pays table construction.
type cachedPlan struct {
	q   *query.Query
	key string // canonical language key (query.CacheKey)
	// compileTime covers parse → determinize → minimize → plan tables for
	// parsed queries, and plan tables for learner-installed ones.
	compileTime time.Duration
	// hits counts requests served with this plan (across all its source
	// spellings).
	hits atomic.Uint64
}

// planEntry is one (possibly in-flight) compilation of a source string.
// done is closed when p/err are set; waiters on an open channel share the
// single compile instead of duplicating it.
type planEntry struct {
	done chan struct{}
	p    *cachedPlan
	err  error
}

// planCache interns query sources to compiled plans. Two maps give two
// levels of sharing: bySrc short-circuits repeated identical strings
// before any parsing, and byKey deduplicates syntactic variants ("a·b" vs
// "a.b", or any equivalent expression) onto one plan after the canonical
// DFA is built — so the result cache sees one key per query *language*.
// Compilation (parse → determinize → minimize → plan tables) runs outside
// the lock, single-flighted per source: a slow or pathological query never
// stalls cache hits for other queries.
type planCache struct {
	alpha *alphabet.Alphabet

	mu    sync.RWMutex
	bySrc map[string]*planEntry
	byKey map[string]*cachedPlan

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newPlanCache(alpha *alphabet.Alphabet) *planCache {
	return &planCache{
		alpha: alpha,
		bySrc: make(map[string]*planEntry),
		byKey: make(map[string]*cachedPlan),
	}
}

// get returns the plan for src, compiling it at most once per distinct
// source string (parse errors are deterministic and cached too).
func (c *planCache) get(src string) (*cachedPlan, error) {
	c.mu.RLock()
	e := c.bySrc[src]
	c.mu.RUnlock()
	if e == nil {
		c.mu.Lock()
		if e = c.bySrc[src]; e == nil {
			e = &planEntry{done: make(chan struct{})}
			c.bySrc[src] = e
			c.mu.Unlock()
			c.compile(src, e)
			c.misses.Add(1)
			if e.p != nil {
				e.p.hits.Add(1)
			}
			return e.p, e.err
		}
		c.mu.Unlock()
	}
	<-e.done
	if e.err != nil {
		return nil, e.err
	}
	c.hits.Add(1)
	e.p.hits.Add(1)
	return e.p, nil
}

// compile fills e for src and releases its waiters. Runs without holding
// the cache lock (the alphabet is itself concurrency-safe); only the
// cheap canonical-key dedup step relocks. The compiled evaluation plan is
// built here, at intern time — requests only ever read it.
func (c *planCache) compile(src string, e *planEntry) {
	completed := false
	defer func() {
		if !completed {
			// Parse/compile panicked: unregister the source so the next
			// request retries it, and fail the waiters of this flight.
			c.mu.Lock()
			delete(c.bySrc, src)
			c.mu.Unlock()
			e.err = errCompilePanicked
		}
		close(e.done)
	}()
	start := time.Now()
	q, err := query.Parse(c.alpha, src)
	if err != nil {
		e.err = err
		completed = true
		return
	}
	q.Plan() // build the evaluation plan now, not on first request
	elapsed := time.Since(start)
	key := q.CacheKey()
	c.mu.Lock()
	p := c.byKey[key]
	if p == nil {
		p = &cachedPlan{q: q, key: key, compileTime: elapsed}
		c.byKey[key] = p
	}
	c.mu.Unlock()
	e.p = p
	completed = true
}

// install interns an already-compiled query — the learner's output — into
// the cache: deduplicated by canonical language key against every plan the
// parser ever produced, and registered under the query's rendered source
// string so clients re-issuing the printed expression hit bySrc without
// re-parsing. Returns the canonical plan (an equivalent plan that already
// existed wins, so the result cache keeps one key per language). Only a
// new language is compiled; the canonical plan's source is rendered once
// (query.String memoizes it), so a repeat install allocates nothing.
func (c *planCache) install(q *query.Query) *cachedPlan {
	key := q.CacheKey()
	c.mu.RLock()
	p := c.byKey[key]
	c.mu.RUnlock()
	if p == nil {
		start := time.Now()
		q.Plan() // compile at install time, as the parse path does
		elapsed := time.Since(start)
		c.mu.Lock()
		if p = c.byKey[key]; p == nil {
			p = &cachedPlan{q: q, key: key, compileTime: elapsed}
			c.byKey[key] = p
		}
		c.mu.Unlock()
	}
	// Register the canonical plan's own rendering (which may differ from
	// q's when an equivalent plan already existed): it is the string
	// LearnResult.Source reports, so re-issuing it must hit bySrc.
	src := p.q.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bySrc[src] == nil {
		e := &planEntry{done: make(chan struct{}), p: p}
		close(e.done)
		c.bySrc[src] = e
	}
	return p
}

// errCompilePanicked is served to single-flight waiters whose compiling
// goroutine panicked; the panic itself propagates on that goroutine.
var errCompilePanicked = errPlan("query compilation failed; retry")

type errPlan string

func (e errPlan) Error() string { return string(e) }

// PlanInfo describes one cached plan — the /plans endpoint's row.
type PlanInfo struct {
	// Source is the canonical rendering of the plan's query.
	Source string `json:"source"`
	// Key is the canonical language key the plan is interned under.
	Key string `json:"key"`
	// States is the canonical DFA state count (the paper's query size).
	States int `json:"states"`
	// Layout is the evaluation layout chosen at compile time ("masked"
	// for ≤ 64 states, "packed" otherwise).
	Layout string `json:"layout"`
	// CompileNs is the one-time compilation cost in nanoseconds.
	CompileNs int64 `json:"compile_ns"`
	// Hits counts requests served with this plan.
	Hits uint64 `json:"hits"`
}

// list snapshots every cached plan, most-used first (ties by source).
func (c *planCache) list() []PlanInfo {
	c.mu.RLock()
	out := make([]PlanInfo, 0, len(c.byKey))
	for _, p := range c.byKey {
		out = append(out, PlanInfo{
			Source:    p.q.String(),
			Key:       p.key,
			States:    p.q.Size(),
			Layout:    p.q.Plan().Layout.String(),
			CompileNs: p.compileTime.Nanoseconds(),
			Hits:      p.hits.Load(),
		})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Source < out[j].Source
	})
	return out
}

func (c *planCache) fill(s *Stats) {
	s.PlanHits = c.hits.Load()
	s.PlanMisses = c.misses.Load()
	c.mu.RLock()
	s.Plans = len(c.byKey)
	for _, p := range c.byKey {
		s.PlanStates += p.q.Size()
		s.PlanCompileNs += p.compileTime.Nanoseconds()
	}
	c.mu.RUnlock()
}
