package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// epochSnaps returns snapshots of one small graph at n consecutive
// epochs, for driving the result cache directly.
func epochSnaps(n int) []*graph.Snapshot {
	g := graph.New(nil)
	g.AddEdgeByName("u", "a", "v")
	snaps := []*graph.Snapshot{g.Snapshot()}
	for len(snaps) < n {
		g.AddEdgeByName("u", "a", "v")
		snaps = append(snaps, g.Snapshot())
	}
	return snaps
}

// TestResultCacheBoundedUnderInFlightStorm is the regression test for the
// unbounded-growth bug: when every resident entry was in flight,
// evictLocked freed nothing and do inserted anyway, so a storm of distinct
// slow queries grew the map past cap without limit. The fix computes such
// requests uncached, keeping residency hard-bounded at cap.
func TestResultCacheBoundedUnderInFlightStorm(t *testing.T) {
	const cap, storm = 4, 24
	c := newResultCache(cap)
	snap := epochSnaps(1)[0]
	release := make(chan struct{})
	started := make(chan struct{}, storm)
	results := make([][]graph.NodeID, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := resultKey{from: graph.NodeID(i), plan: "p"}
			ent, _, _ := c.do(context.Background(), key, snap, nil, 0, func() (query.Answer, []uint64, error) {
				started <- struct{}{}
				<-release
				return query.Answer{Nodes: []graph.NodeID{graph.NodeID(i)}}, nil, nil
			})
			results[i] = ent.ans.Nodes
		}(i)
	}
	// Every compute is running: all storm keys are distinct, so resident
	// in-flight entries plus refused (uncached) computes total storm.
	for i := 0; i < storm; i++ {
		<-started
	}
	c.mu.Lock()
	resident := len(c.entries)
	c.mu.Unlock()
	if resident > cap {
		t.Fatalf("cache grew to %d in-flight entries, cap %d", resident, cap)
	}
	close(release)
	wg.Wait()
	for i, nodes := range results {
		if len(nodes) != 1 || int(nodes[0]) != i {
			t.Fatalf("request %d got %v", i, nodes)
		}
	}
	// Bound holds after completion too.
	c.mu.Lock()
	resident = len(c.entries)
	c.mu.Unlock()
	if resident > cap {
		t.Fatalf("%d completed entries resident, cap %d", resident, cap)
	}
}

// TestResultCacheWaiterHonorsContext regresses the context-blind
// single-flight wait: a waiter with an expiring deadline sharing someone
// else's slow flight must return ctx.Err() promptly instead of inheriting
// the flight's runtime.
func TestResultCacheWaiterHonorsContext(t *testing.T) {
	c := newResultCache(8)
	snap := epochSnaps(1)[0]
	key := resultKey{plan: "slow"}
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.do(context.Background(), key, snap, nil, 0, func() (query.Answer, []uint64, error) {
			close(started)
			<-release
			return query.Answer{Count: 1}, nil, nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.do(ctx, key, snap, nil, 0, func() (query.Answer, []uint64, error) {
		t.Error("waiter must share the in-flight computation, not start one")
		return query.Answer{}, nil, nil
	})
	if err != context.DeadlineExceeded {
		t.Fatalf("waiter err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired waiter blocked for %v", elapsed)
	}

	close(release)
	// The original flight completes and serves later requests normally.
	ent, cached, err := c.do(context.Background(), key, snap, nil, 0, func() (query.Answer, []uint64, error) {
		return query.Answer{}, nil, nil
	})
	if err != nil || !cached || ent.ans.Count != 1 {
		t.Fatalf("post-release hit: entry %+v cached %v err %v", ent, cached, err)
	}
}
