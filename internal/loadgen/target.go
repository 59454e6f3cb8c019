package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pathquery/internal/engine"
	"pathquery/internal/server"
)

// InProcess drives e directly: Engine.Evaluate, Mutate and Stats.
func InProcess(e *engine.Engine) Target { return inProcess{e} }

type inProcess struct{ e *engine.Engine }

func (t inProcess) Read(ctx context.Context, re *engine.ReplayEntry) (bool, error) {
	a, err := t.e.Evaluate(ctx, engine.Request{Query: re.Expr, Semantics: re.Semantics, From: re.From})
	return a.Cached, err
}

func (t inProcess) Mutate(_ context.Context, edges []engine.EdgeSpec) error {
	_, err := t.e.Mutate(edges)
	return err
}

func (t inProcess) Stats(context.Context) (engine.Stats, error) { return t.e.Stats(), nil }

// HTTP drives one graph of a live server through its base URL,
// http://host:port/v1/graphs/{name}: reads POST /query tagged with the
// entry's class in the X-Workload-Class header (so the server splits its
// own latency per class), writes POST /mutate, and the counters come
// from GET /stats. Any answer outside 2xx is the request's error.
func HTTP(base string) Target {
	return &httpTarget{
		base:   strings.TrimSuffix(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

type httpTarget struct {
	base   string
	client *http.Client
}

// cachedField is the "cached" member of every /v1/query answer. It
// follows "epoch", "semantics" and "count" in a fixed header that holds
// no client-chosen string, so its first occurrence is the answer's own.
var cachedField = []byte(`"cached":`)

func (t *httpTarget) Read(ctx context.Context, re *engine.ReplayEntry) (bool, error) {
	body, err := json.Marshal(engine.Request{Query: re.Expr, Semantics: re.Semantics, From: re.From})
	if err != nil {
		return false, err
	}
	ans, err := t.do(ctx, http.MethodPost, "/query", body, re.Class)
	if err != nil {
		return false, err
	}
	i := bytes.Index(ans, cachedField)
	return i >= 0 && bytes.HasPrefix(ans[i+len(cachedField):], []byte("true")), nil
}

func (t *httpTarget) Mutate(ctx context.Context, edges []engine.EdgeSpec) error {
	body, err := json.Marshal(struct {
		Edges []engine.EdgeSpec `json:"edges"`
	}{edges})
	if err != nil {
		return err
	}
	_, err = t.do(ctx, http.MethodPost, "/mutate", body, "")
	return err
}

func (t *httpTarget) Stats(ctx context.Context) (engine.Stats, error) {
	var st engine.Stats
	body, err := t.do(ctx, http.MethodGet, "/stats", nil, "")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("%s/stats: %w", t.base, err)
	}
	return st, nil
}

// do sends one request and returns the body of a 2xx answer.
func (t *httpTarget) do(ctx context.Context, method, path string, body []byte, class string) ([]byte, error) {
	url := t.base + path
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if class != "" {
		req.Header.Set(server.WorkloadClassHeader, class)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	ans, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(ans))
	}
	return ans, nil
}
