package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServerDispatch is a cached tenant query through
// Server.Handler: routing, admission, metrics and the engine's query
// handler, with the httptest request and recorder.
func BenchmarkServerDispatch(b *testing.B) {
	s, err := New(Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	serve := func(path, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	serve("/v1/graphs/g/mutate", `{"edges":[{"from":"u","label":"x","to":"v"},{"from":"v","label":"y","to":"w"}]}`)
	serve("/v1/graphs/g/query", `{"query":"x·y"}`) // fill the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve("/v1/graphs/g/query", `{"query":"x·y"}`)
	}
}
