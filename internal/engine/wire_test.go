package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// FuzzAppendString is the differential behind the hand-written answer
// bodies: for every string, appendString must write exactly the bytes
// json.Encoder writes with HTML escaping off.
func FuzzAppendString(f *testing.F) {
	for _, s := range hostileNames {
		f.Add(s)
	}
	f.Add("")
	f.Add("\xef\xbf\xbd")    // a valid U+FFFD passes through
	f.Add("\xed\xa0\x80")    // an encoded surrogate is invalid UTF-8
	f.Add("\xe2\x80")        // a truncated U+2028
	f.Add("tram·cinema\x00") // NUL after multi-byte text
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		if got := append(appendString(nil, s), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendString(%q)\n got: %q\nwant: %q", s, got, want.Bytes())
		}
	})
}

// TestWireRowsFollowEntry: rows are rendered once per result entry, so
// they must be shared safely by concurrent first readers, carried along
// when a publish retains the entry, and never carried over when a
// publish regrows it into a new entry.
func TestWireRowsFollowEntry(t *testing.T) {
	e := New(buildHostileFixture(), Options{})
	h := NewHandler(e)
	get := func() string {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"query":"a"}`)))
		if rr.Code != http.StatusOK {
			t.Errorf("status %d: %s", rr.Code, rr.Body.String())
		}
		return rr.Body.String()
	}
	// Compute the entry without rendering it, then let 16 readers race to
	// render it first.
	if _, err := evalNodes(e, "a"); err != nil {
		t.Fatal(err)
	}
	const readers = 16
	bodies := make([]string, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			bodies[i] = get()
		}()
	}
	close(start)
	wg.Wait()
	first := bodies[0]
	if !strings.HasPrefix(first, `{"epoch":1,`) || !strings.Contains(first, `"cached":true`) {
		t.Fatalf("racing readers: %q", first)
	}
	for i, b := range bodies {
		if b != first {
			t.Fatalf("reader %d rendered\n%q\nreader 0 rendered\n%q", i, b, first)
		}
	}

	// A publish on a label no plan mentions retains the entry: the body
	// moves to the new epoch, still cached, with the same rows.
	if _, err := e.Mutate([]EdgeSpec{{From: "<html>&", Label: "z", To: "del\x7f"}}); err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(first, `{"epoch":1,`, `{"epoch":2,`, 1)
	if got := get(); got != want {
		t.Fatalf("retained entry\n got: %q\nwant: %q", got, want)
	}
	if st := e.Stats(); st.ResultRetained != 1 {
		t.Fatalf("ResultRetained = %d, want 1", st.ResultRetained)
	}

	// An overlapping publish regrows the entry into a new one, which
	// must render the new node; rows carried over would miss it.
	if _, err := e.Mutate([]EdgeSpec{{From: "late\"comer", Label: "a", To: "é😀"}}); err != nil {
		t.Fatal(err)
	}
	got := get()
	if !strings.HasPrefix(got, `{"epoch":3,"semantics":"nodes","count":10,"cached":true,`) ||
		!strings.HasSuffix(got, `,"late\"comer"]}`+"\n") {
		t.Fatalf("regrown entry: %q", got)
	}
	if st := e.Stats(); st.ResultRegrown != 1 {
		t.Fatalf("ResultRegrown = %d, want 1", st.ResultRegrown)
	}
}

// TestWireCutReadLeavesEntryRows: a read that limit cuts renders only its
// own rows, straight into its response, and leaves the entry unrendered;
// the first whole read renders the entry, and cut reads after it still
// write their prefix.
func TestWireCutReadLeavesEntryRows(t *testing.T) {
	e := New(buildHostileFixture(), Options{})
	h := NewHandler(e)
	get := func(body string) string {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rr.Code, rr.Body.String())
		}
		return rr.Body.String()
	}
	cut := get(`{"query":"a","limit":2}`)
	ans, err := evalNodes(e, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Cached || ans.ent.rendered.Load() != nil {
		t.Fatalf("after a cut read: cached=%v, entry rendered=%v", ans.Cached, ans.ent.rendered.Load() != nil)
	}
	whole := get(`{"query":"a"}`)
	rows := ans.ent.rendered.Load()
	if rows == nil {
		t.Fatal("a whole read left the entry unrendered")
	}
	names := ans.Names()
	if len(names) <= 2 {
		t.Fatalf("fixture selects %d nodes, want more than the limit", len(names))
	}
	var want []byte
	for i, name := range names {
		if i > 0 {
			want = append(want, ',')
		}
		want = appendString(want, name)
	}
	if !bytes.Equal(*rows, want) {
		t.Fatalf("entry rows\n got: %q\nwant: %q", *rows, want)
	}
	if !strings.HasSuffix(whole, `,"nodes":[`+string(want)+"]}\n") {
		t.Fatalf("whole read: %q", whole)
	}
	prefix := appendString(append(appendString(nil, names[0]), ','), names[1])
	wantCut := `{"epoch":1,"semantics":"nodes","count":` + strconv.Itoa(len(names)) + `,"cached":true,"nodes":[` + string(prefix) + "]}\n"
	if got := get(`{"query":"a","limit":2}`); got != wantCut {
		t.Fatalf("cut read after the whole read\n got: %q\nwant: %q", got, wantCut)
	}
	if cut != strings.Replace(wantCut, `"cached":true`, `"cached":false`, 1) {
		t.Fatalf("first cut read: %q", cut)
	}
}
