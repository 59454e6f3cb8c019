package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/telemetry"
)

// resultKey identifies one cached evaluation: the semantics, the
// semantics arguments (from for pairsFrom/shortest, the witness-path
// limit, the count length bound — zero when the semantics ignores them,
// so equivalent requests share an entry), and the plan's canonical
// language key. The key holds no epoch: an entry records the range of
// epochs its answer is valid for, and a lookup at a newer epoch
// revalidates it (maintain.go) instead of missing.
type resultKey struct {
	sem    query.Semantics
	from   graph.NodeID
	limit  int32
	maxLen int32
	plan   string
}

// resultEntry is one cached (or in-flight) evaluation. done is closed when
// the computation finished; waiters observing an open channel are
// single-flight sharers. failed marks an entry whose compute panicked or
// returned an error (a canceled context, typically) — sharers must not
// serve its zero answer and retry instead.
type resultEntry struct {
	done   chan struct{}
	ans    query.Answer
	failed bool
	// ans is the answer at every epoch in [validFrom, validTo]. validFrom
	// is the epoch it was computed or regrown on; lookups at newer epochs
	// advance validTo when nothing the answer depends on changed.
	validFrom uint64
	validTo   atomic.Uint64
	// nv is the node count at validFrom: an unanchored ε-accepting plan
	// selects every node, so node growth alone changes its answer.
	nv int
	// q and masks make the entry revalidatable (maintain.go): q reaches
	// the plan's alphabet mask and ε/emptiness flags, and masks is the
	// monadic fixpoint EvaluateReq returned alongside a masked nodes
	// answer — nil for every other entry, which a write on the plan's
	// alphabet drops for a scratch recompute.
	q     *query.Query
	masks []uint64
	// rendered is all of ans's rows in wire form, set by the first read
	// that serves them whole (wire.go). A retained entry keeps them; a
	// regrow builds a new entry, which renders its own on its first read.
	rendered atomic.Pointer[[]byte]
}

// completed reports whether e finished successfully.
func (e *resultEntry) completed() bool {
	select {
	case <-e.done:
		return !e.failed
	default:
		return false
	}
}

// resultCache is a bounded single-flight cache of evaluation answers.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[resultKey]*resultEntry

	hits   atomic.Uint64
	misses atomic.Uint64
	shared atomic.Uint64
	// uncached counts scratch passes run without cache residency: the
	// cache was full of in-flight entries, or the resident entry cannot
	// answer for the request's pinned epoch.
	uncached atomic.Uint64
	// Revalidation outcomes (maintain.go): lookups that carried an entry
	// forward to a newer epoch untouched, entries regrown from the epoch
	// delta, and entries dropped for a scratch recompute.
	retained atomic.Uint64
	regrown  atomic.Uint64
	dropped  atomic.Uint64
	// regrowHist is the per-entry incremental regrow latency.
	regrowHist telemetry.Histogram
}

func newResultCache(cap int) *resultCache {
	return &resultCache{cap: cap, entries: make(map[resultKey]*resultEntry)}
}

// lookup is the closure-free fast path: it returns a completed entry
// valid at snap — revalidating it when snap is newer — or ok=false for a
// miss, an in-flight or failed entry, or an entry that cannot answer for
// snap, all of which the caller routes through do (which shares,
// retries, regrows or computes as appropriate). Skipping the
// compute-closure construction and the single-flight bookkeeping here
// keeps the steady-state cached hit at a map probe plus a few atomics.
func (c *resultCache) lookup(key resultKey, snap *graph.Snapshot) (*resultEntry, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok || !e.completed() || !c.current(e, key, snap) {
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// do returns the entry holding key's answer at snap, computing it via
// compute at most once across all concurrent callers pinned to snap's
// epoch. cached reports whether the caller got a stored, revalidated,
// regrown or shared answer instead of running compute itself. ctx bounds
// the caller's wait on someone else's in-flight computation — a waiter
// whose context expires stops waiting and returns ctx.Err() (the flight
// itself keeps running under its own caller's context). A compute error
// (cancellation) is returned to its own caller only and never cached:
// waiters sharing the failed flight retry with their own compute. The
// entry is shared (never copied on the hit path) — callers must treat
// its answer, slices and rendered rows as immutable.
//
// A resident entry that cannot answer for snap is replaced by a flight at
// snap's epoch, which regrows it from the epoch delta within budget edge
// relaxations when it can (maintain.go) and runs compute otherwise. A
// request pinned below the resident entry's epochs, or one finding a
// flight pinned to another epoch, computes uncached and leaves the entry
// alone. q is the query the key's plan string identifies; compute
// additionally returns the product fixpoint masks (or nil). Both are
// stored on the entry so later epochs can revalidate it.
func (c *resultCache) do(ctx context.Context, key resultKey, snap *graph.Snapshot, q *query.Query, budget int, compute func() (query.Answer, []uint64, error)) (ent *resultEntry, cached bool, err error) {
	epoch := snap.Epoch()
	c.mu.Lock()
	prev := c.entries[key]
	if prev != nil {
		c.mu.Unlock()
		select {
		case <-prev.done:
		default:
			if prev.validFrom != epoch {
				return c.computeUncached(compute)
			}
			c.shared.Add(1)
			select {
			case <-prev.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if !prev.failed {
				return prev, true, nil
			}
		}
		switch {
		case prev.failed:
			// The computing goroutine panicked or was canceled (and
			// removed the entry); retry as a fresh flight rather than
			// serving its zero answer.
			return c.do(ctx, key, snap, q, budget, compute)
		case epoch < prev.validFrom:
			return c.computeUncached(compute)
		case c.current(prev, key, snap):
			c.hits.Add(1)
			return prev, true, nil
		}
		c.mu.Lock()
		if c.entries[key] != prev {
			// Another request replaced the stale entry first.
			c.mu.Unlock()
			return c.do(ctx, key, snap, q, budget, compute)
		}
	} else {
		if len(c.entries) >= c.cap {
			c.evictLocked()
		}
		if len(c.entries) >= c.cap {
			// Eviction freed nothing: every resident entry is still in
			// flight. Refusing to insert keeps the cache hard-bounded at
			// cap — this request computes uncached (no single-flight
			// sharing for its key) instead of growing the map without
			// limit under compute storms.
			c.mu.Unlock()
			return c.computeUncached(compute)
		}
	}
	e := &resultEntry{done: make(chan struct{}), q: q, validFrom: epoch, nv: snap.NumNodes()}
	e.validTo.Store(epoch)
	c.entries[key] = e
	c.mu.Unlock()

	defer func() {
		if !e.failed {
			return
		}
		// compute panicked or errored: drop the entry so the key can be
		// retried, release waiters (flagged failed), and let a panic
		// propagate.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	e.failed = true
	if prev != nil && c.regrow(e, prev, snap, budget) {
		cached = true
	} else {
		if prev != nil {
			c.dropped.Add(1)
		}
		c.misses.Add(1)
		e.ans, e.masks, err = compute()
		if err != nil {
			return nil, false, err
		}
	}
	e.failed = false
	close(e.done)
	return e, cached, nil
}

// computeUncached runs compute without cache residency, wrapping the
// answer in a throwaway entry so it renders like any other.
func (c *resultCache) computeUncached(compute func() (query.Answer, []uint64, error)) (*resultEntry, bool, error) {
	c.misses.Add(1)
	c.uncached.Add(1)
	a, _, err := compute()
	if err != nil {
		return nil, false, err
	}
	return &resultEntry{ans: a}, false, nil
}

// evictLocked makes room for one insert: it frees completed entries,
// oldest validTo first, until the cache is back under its cap. In-flight
// entries are never evicted.
func (c *resultCache) evictLocked() {
	for len(c.entries) >= c.cap {
		var victim resultKey
		var oldest uint64
		found := false
		for k, e := range c.entries {
			if !e.completed() {
				continue
			}
			if to := e.validTo.Load(); !found || to < oldest {
				victim, oldest, found = k, to, true
			}
		}
		if !found {
			return
		}
		delete(c.entries, victim)
	}
}

// size returns the current number of cached entries — the
// result_cache_entries gauge.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *resultCache) fill(s *Stats) {
	s.ResultHits = c.hits.Load()
	s.ResultMisses = c.misses.Load()
	s.ResultShared = c.shared.Load()
	s.ResultRetained = c.retained.Load()
	s.ResultRegrown = c.regrown.Load()
	s.ResultDropped = c.dropped.Load()
	c.mu.Lock()
	s.ResultEntries = len(c.entries)
	c.mu.Unlock()
}
