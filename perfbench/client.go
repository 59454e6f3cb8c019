package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"pathquery"
)

// server is one in-process pathquery server: a volatile engine behind
// its HTTP handler, called without a listener.
type server struct {
	eng *pathquery.Engine
	h   http.Handler
}

func newServer() *server {
	eng := pathquery.NewEngine(pathquery.NewGraph(nil), pathquery.EngineOptions{})
	return &server{eng: eng, h: pathquery.NewEngineHandler(eng)}
}

// close stops the engine's background cache maintainer.
func (s *server) close() { s.eng.Close() }

// call serves one request and returns its status, its body, and the time
// the handler took; building the request is not timed.
func (s *server) call(method, target string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	s.h.ServeHTTP(rec, req)
	d := time.Since(start)
	return rec.Code, rec.Body.Bytes(), d
}

// Per-layer spans. wire is a read's handler time minus the engine's own
// total, i.e. request decoding, routing and response encoding; evaluate
// is Engine.Evaluate's total; compile, cache_lookup and traverse are its
// stages; mutate and learn are the handler times of /mutate and /learn
// calls.
const (
	spanWire = iota
	spanEvaluate
	spanCompile
	spanLookup
	spanTraverse
	spanMutate
	spanLearn
	numSpans
)

// client is one closed-loop client. Only its own goroutine touches it.
type client struct {
	cfg  config
	in   *inputs
	srv  *server
	rng  *rand.Rand // request choices
	pick *rand.Rand // answer sampling, kept apart so it cannot shift requests

	// measuring is set while spans and learner counts are recorded: in
	// the measured window and, for the set-up client, during set-up.
	measuring         bool
	attempted, failed int
	lat               [blocks][]int64 // operation latencies by block of the window
	spans             [numSpans][]int64
	learnK, learns    int

	offered int
	samples []sample
	writes  []writeRec
}

// sample is one answer kept for checking.
type sample struct {
	req  readReq
	resp []byte
	// task and learned are set for a learn operation's answer.
	task    *learnTask
	learned learnResp
}

// writeRec is one acknowledged /mutate call.
type writeRec struct {
	epoch uint64
	edges []edge
}

type learnResp struct {
	Query     string `json:"query"`
	K         int    `json:"k"`
	Selection struct {
		Count int `json:"count"`
	} `json:"selection"`
}

// newClient makes client id; its request choices are seeded like
// engine.RunLoad's client id.
func newClient(cfg config, in *inputs, srv *server, id int64) *client {
	return &client{
		cfg:  cfg,
		in:   in,
		srv:  srv,
		rng:  rand.New(rand.NewSource(cfg.seed + id)),
		pick: rand.New(rand.NewSource(cfg.seed*104729 + id)),
	}
}

// record counts one operation of block b of the measured window.
func (c *client) record(b int, d time.Duration, ok bool) {
	c.attempted++
	c.lat[b] = append(c.lat[b], int64(d))
	if !ok {
		c.failed++
	}
}

// offer reservoir-samples an answer for checking.
func (c *client) offer(s sample) {
	c.offered++
	if len(c.samples) < samplesPerClient {
		c.samples = append(c.samples, s)
	} else if j := c.pick.Intn(c.offered); j < samplesPerClient {
		c.samples[j] = s
	}
}

// read issues one /v1/query request and returns the time the handler
// took and whether it answered.
func (c *client) read(r readReq, body []byte) (time.Duration, bool) {
	target := "/v1/query"
	if c.cfg.trace {
		target += "?trace=1"
	}
	status, resp, d := c.srv.call("POST", target, body)
	if status != http.StatusOK {
		return d, false
	}
	c.traceRead(resp, d)
	c.offer(sample{req: r, resp: resp})
	return d, true
}

// traceRead records the stage spans of a traced answer.
func (c *client) traceRead(resp []byte, d time.Duration) {
	if !c.cfg.trace || !c.measuring {
		return
	}
	var t struct {
		Trace *struct {
			TotalNs int64 `json:"total_ns"`
			Spans   []struct {
				Name string `json:"name"`
				Ns   int64  `json:"ns"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if json.Unmarshal(resp, &t) != nil || t.Trace == nil {
		return
	}
	c.spans[spanWire] = append(c.spans[spanWire], int64(d)-t.Trace.TotalNs)
	c.spans[spanEvaluate] = append(c.spans[spanEvaluate], t.Trace.TotalNs)
	for _, s := range t.Trace.Spans {
		switch s.Name {
		case "compile":
			c.spans[spanCompile] = append(c.spans[spanCompile], s.Ns)
		case "cache_lookup":
			c.spans[spanLookup] = append(c.spans[spanLookup], s.Ns)
		case "traverse":
			c.spans[spanTraverse] = append(c.spans[spanTraverse], s.Ns)
		}
	}
}

// write posts one /mutate call adding edges and returns the handler's
// time; an acknowledged write is kept with its epoch for checking.
func (c *client) write(edges []edge) (time.Duration, bool) {
	body, err := json.Marshal(struct {
		Edges []edge `json:"edges"`
	}{edges})
	if err != nil {
		return 0, false
	}
	status, resp, d := c.srv.call("POST", "/mutate", body)
	if c.measuring {
		c.spans[spanMutate] = append(c.spans[spanMutate], int64(d))
	}
	var m struct {
		Epoch uint64 `json:"epoch"`
	}
	if status != http.StatusOK || json.Unmarshal(resp, &m) != nil {
		return d, false
	}
	c.writes = append(c.writes, writeRec{m.Epoch, edges})
	return d, true
}

// ingest loads the base graph.
func (c *client) ingest() error {
	for off := 0; off < len(c.in.base); off += ingestBatch {
		if _, ok := c.write(c.in.base[off:min(off+ingestBatch, len(c.in.base))]); !ok {
			return fmt.Errorf("ingest: /mutate failed")
		}
	}
	return nil
}

// learn asks the learner to solve a task of the client's goal.
func (c *client) learn(t *learnTask, body []byte) (time.Duration, bool) {
	status, resp, d := c.srv.call("POST", "/learn", body)
	if c.measuring {
		c.spans[spanLearn] = append(c.spans[spanLearn], int64(d))
	}
	var lr learnResp
	if status != http.StatusOK || json.Unmarshal(resp, &lr) != nil {
		return d, false
	}
	if c.measuring {
		c.learnK += lr.K
		c.learns++
	}
	c.offer(sample{task: t, learned: lr})
	return d, true
}

// answer is the part of a /v1/query answer the checks read.
type answer struct {
	Epoch     uint64   `json:"epoch"`
	Semantics string   `json:"semantics"`
	Count     int      `json:"count"`
	Nodes     []string `json:"nodes"`
}

// verify checks every sampled answer against the reference evaluator on
// the graph as of the answer's epoch: every write acknowledged with an
// epoch at or before it. Learned queries are checked on the base graph,
// which the learn workload never changes.
func verify(in *inputs, clients []*client) error {
	type checked struct {
		sample
		ans answer
	}
	var samples []checked
	var writes []writeRec
	for _, c := range clients {
		for _, s := range c.samples {
			if s.task != nil {
				if err := checkLearned(in.reference, s.task, s.learned); err != nil {
					return err
				}
				continue
			}
			var a answer
			if err := json.Unmarshal(s.resp, &a); err != nil {
				return fmt.Errorf("undecodable answer to %+v: %v", s.req, err)
			}
			samples = append(samples, checked{s, a})
		}
		writes = append(writes, c.writes...)
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].ans.Epoch < samples[j].ans.Epoch })
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].epoch < writes[j].epoch })

	ref := newRefGraph()
	for _, s := range samples {
		for len(writes) > 0 && writes[0].epoch <= s.ans.Epoch {
			for _, e := range writes[0].edges {
				ref.add(e)
			}
			writes = writes[1:]
		}
		if err := checkRead(ref, s.req, s.ans); err != nil {
			return fmt.Errorf("%+v at epoch %d: %v", s.req, s.ans.Epoch, err)
		}
	}
	return nil
}

func checkRead(ref *refGraph, r readReq, ans answer) error {
	a, err := ref.compile(r.Query)
	if err != nil {
		return err
	}
	if ans.Semantics != r.Semantics {
		return fmt.Errorf("answered semantics %q", ans.Semantics)
	}
	var sel []bool
	if r.Semantics == "pairsFrom" {
		u, ok := ref.ids[r.From]
		if !ok {
			return fmt.Errorf("unknown anchor")
		}
		sel = ref.pairsFrom(a, u)
	} else {
		sel = ref.selectNodes(a)
	}
	want := count(sel)
	if ans.Count != want || len(ans.Nodes) != want {
		return fmt.Errorf("count %d with %d rows, want %d", ans.Count, len(ans.Nodes), want)
	}
	for _, name := range ans.Nodes {
		if id, ok := ref.ids[name]; !ok || !sel[id] {
			return fmt.Errorf("node %s is not selected", name)
		}
	}
	return nil
}

// checkLearned checks that the learned query is consistent with the
// task's examples and that the learner reported its selection size.
func checkLearned(ref *refGraph, t *learnTask, lr learnResp) error {
	a, err := ref.compile(lr.Query)
	if err != nil {
		return err
	}
	sel := ref.selectNodes(a)
	for _, p := range t.Pos {
		if !sel[ref.ids[p]] {
			return fmt.Errorf("learned %q misses positive %s", lr.Query, p)
		}
	}
	for _, n := range t.Neg {
		if sel[ref.ids[n]] {
			return fmt.Errorf("learned %q selects negative %s", lr.Query, n)
		}
	}
	if want := count(sel); lr.Selection.Count != want {
		return fmt.Errorf("learned %q: selection count %d, want %d", lr.Query, lr.Selection.Count, want)
	}
	return nil
}
