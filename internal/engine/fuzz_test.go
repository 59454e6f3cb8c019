package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeQuirks are bodies on which encoding/json's strict decoding is
// easy to get wrong. Each is a seed of every differential target below,
// whose shape decides which of them it accepts.
var decodeQuirks = []string{
	// Keys match exactly or under case folding, escaped or not: U+017F
	// folds to 's' and U+212A (the Kelvin sign) to 'k'.
	`{"QUERY":"tram"}`,
	`{"Query":"tram","SEMANTICS":"nodes","MaxLen":3,"maxlen":4}`,
	`{"ſemantics":"nodes","query":"tram"}`,
	`{"\u0071uery":"tram"}`,
	`{"pos":["a"],"\u212a":2,"MAX\u212a":3}`,
	`{"requeſts":[{"query":"tram"}]}`,
	`{"EDGES":[{"FROM":"a","Label":"x","tO":"b"}]}`,
	// Escapes and invalid UTF-8 in values: a surrogate pair combines, a
	// lone surrogate becomes U+FFFD without consuming the next escape,
	// and each invalid byte becomes U+FFFD.
	`{"query":"\ud83d\ude00"}`,
	`{"query":"\ud800\u0041"}`,
	`{"query":"\udc00\ud800\udc00"}`,
	`{"query":"\ud800\ud800\udc00"}`,
	`{"query":"\ud800\uzzzz"}`,
	`{"query":"\ud800"}`,
	`{"query":"\ud800\"}`,
	`{"query":"\"\\\/\b\f\n\r\t\u00e9\u0000"}`,
	`{"query":"\x"}`,
	`{"query":"\u12"}`,
	"{\"query\":\"\xff\xfe\"}",
	"{\"query\":\"tram\xe2\x80\"}",
	"{\"query\":\"\xed\xa0\x80\"}",
	"{\"query\":\"\xef\xbf\xbd\"}",
	"{\"qu\xffery\":\"tram\"}",
	"{\"query\":\"a\x01b\"}",
	"{\"query\":\"tab\there\"}",
	"{\"query\":\"del\x7f\"}",
	// The last of a repeated key wins, and a repeated array decodes into
	// the earlier array's elements.
	`{"query":"a","query":"b"}`,
	`{"requests":[{"query":"a","limit":5}],"requests":[{"query":"b"}]}`,
	`{"requests":[{"query":"a"},{"query":"b","from":"N1"}],"requests":[{"limit":1}],"requests":[{},{}]}`,
	`{"requests":[{"query":"a"}],"requests":[],"requests":[{}]}`,
	`{"pos":["a","b"],"pos":[null]}`,
	`{"pos":["a","b","c"],"pos":["x"],"pos":[null,null,null]}`,
	`{"edges":[{"from":"a","label":"x","to":"b"}],"edges":[{"to":"c"}]}`,
	// null is the zero body, resets a slice, and leaves a string, an int
	// or an element object unchanged.
	`null`,
	` null `,
	`{"query":null}`,
	`{"query":"a","query":null,"limit":2,"limit":null}`,
	`{"requests":null}`,
	`{"requests":[null,{"query":"a"}]}`,
	`{"requests":[{"query":"a"}],"requests":[null]}`,
	`{"pos":null,"neg":[null]}`,
	`{"edges":[null]}`,
	`nul`,
	`nullx`,
	`{"query":nul}`,
	// Ints: an integer literal that fits in 64 bits.
	`{"limit":-0}`,
	`{"limit":0,"maxLen":7}`,
	`{"limit":1e2}`,
	`{"limit":1.0}`,
	`{"limit":1E2}`,
	`{"limit":99999999999999999999}`,
	`{"limit":9223372036854775807}`,
	`{"limit":9223372036854775808}`,
	`{"limit":-9223372036854775808}`,
	`{"limit":-9223372036854775809}`,
	`{"limit":"5"}`,
	`{"limit":01}`,
	`{"limit":-}`,
	`{"limit":+1}`,
	`{"limit":true}`,
	`{"k":2,"maxk":16,"limit":-1}`,
	// Wrong types and unknown keys, at every depth.
	`{"query":5}`,
	`{"query":["tram"]}`,
	`{"query":{"x":1}}`,
	`{"requests":{"query":"a"}}`,
	`{"requests":["tram"]}`,
	`{"requests":[[]]}`,
	`{"pos":"a"}`,
	`{"pos":[1]}`,
	`{"edges":[{"from":"a","label":"x","to":"b","weight":1}]}`,
	`{"requests":[{"query":"a","bogus":1}]}`,
	`{"quer":"tram"}`,
	`{"":1}`,
	// Syntax: whitespace, trailing data, and anything but one object.
	" \t\r\n{ \"query\" : \"tram\" , \"limit\" : 2 } \n",
	"\f{\"query\":\"tram\"}",
	`{"query":"tram"} garbage`,
	`{"query":"tram"}{"query":"(("}`,
	"{\"query\":\"tram\"}\x00",
	"\xef\xbb\xbf{\"query\":\"tram\"}",
	`{"query":"tram",}`,
	`{,}`,
	`{"query" "tram"}`,
	`{"query":"tram"`,
	`{"query":`,
	`{`,
	`}`,
	`{}`,
	`[]`,
	`5`,
	`"tram"`,
	`true`,
	``,
	`   `,
}

// decodeReference is the decoding the hand-written decoder is held to:
// one json.Decoder with DisallowUnknownFields, then a Token call that
// must find nothing but the end of the body.
func decodeReference(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// checkDecode is the differential behind the request decoder: on body,
// decodeJSON and decodeReference must agree on accepting it and, when
// both do, on the decoded value, with nil and empty slices equal.
func checkDecode[T requestBody](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr := decodeJSON(body, &got)
	wantErr := decodeReference(body, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T on %q: decoder error %v, encoding/json error %v", got, body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(nilEmpty(&got), nilEmpty(&want)) {
		t.Fatalf("%T on %q:\n decoded %+v\nencoding/json %+v", got, body, got, want)
	}
}

// nilEmpty returns v with each empty slice set to nil: no caller tells
// the two apart.
func nilEmpty(v any) any {
	switch v := v.(type) {
	case *batchRequest:
		if len(v.Requests) == 0 {
			v.Requests = nil
		}
	case *learnRequest:
		if len(v.Pos) == 0 {
			v.Pos = nil
		}
		if len(v.Neg) == 0 {
			v.Neg = nil
		}
	case *mutationRequest:
		if len(v.Edges) == 0 {
			v.Edges = nil
		}
	}
	return v
}

// FuzzV1Query fuzzes the /v1/query request decoder against
// encoding/json, and the evaluation argument validation behind it:
// malformed JSON, unknown fields, huge and negative limits, absurd maxLen
// values, bogus semantics and node names must all answer a well-formed
// JSON response with a sane status — never a panic, a hang, or a non-JSON
// body.
func FuzzV1Query(f *testing.F) {
	seeds := []string{
		`{"query":"tram·cinema"}`,
		`{"query":"tram·cinema","semantics":"witness","limit":2}`,
		`{"query":"(tram+bus)*·cinema","semantics":"count","maxLen":7}`,
		`{"query":"tram","semantics":"pairsFrom","from":"N1"}`,
		`{"query":"tram","semantics":"shortest","from":"N9"}`,
		`{"query":"tram","semantics":"fancy"}`,
		`{"query":"tram·("}`,
		`{"query":"tram","limit":-5}`,
		`{"query":"tram","limit":9223372036854775807}`,
		`{"query":"tram","semantics":"count","maxLen":9223372036854775807}`,
		`{"query":""}`,
		`{"query":"tram","semantics":"count","maxLen":-3}`,
	}
	for _, s := range append(seeds, decodeQuirks...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecode[Request](t, []byte(body))
		// A fresh engine per input keeps the plan cache from accumulating
		// one compiled plan per fuzzed query string across the run.
		h := NewHandler(New(buildFixture(), Options{ResultCacheCap: 8}))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusUnprocessableEntity, http.StatusGatewayTimeout, 499:
		default:
			t.Fatalf("unexpected status %d for %q", rr.Code, body)
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("non-JSON response for %q: %s", body, rr.Body.String())
		}
		if rr.Code != http.StatusOK {
			var env errorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("error response for %q lacks the envelope: %s", body, rr.Body.String())
			}
		}
	})
}

// FuzzDecodeBody fuzzes the decoder of the other three bodies against
// encoding/json: shape picks /v1/batch (0), /learn (1) or /mutate (2),
// modulo 3, and the decoder must accept and reject what encoding/json
// does and decode what both accept to the same value.
func FuzzDecodeBody(f *testing.F) {
	seeds := []string{
		`{"requests":[{"query":"tram"},{"query":"bus","semantics":"witness","limit":1}]}`,
		`{"requests":[]}`,
		`{"pos":["N1","N2"],"neg":["N3"],"k":3,"limit":10}`,
		`{"pos":[],"neg":["N1"],"maxk":8}`,
		`{"edges":[{"from":"a","label":"x","to":"b"},{"from":"b","label":"y","to":"c"}]}`,
		`{"edges":[]}`,
	}
	for _, s := range append(seeds, decodeQuirks...) {
		for shape := range 3 {
			f.Add(uint8(shape), s)
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, body string) {
		switch shape % 3 {
		case 0:
			checkDecode[batchRequest](t, []byte(body))
		case 1:
			checkDecode[learnRequest](t, []byte(body))
		default:
			checkDecode[mutationRequest](t, []byte(body))
		}
	})
}
