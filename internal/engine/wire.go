package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/telemetry"
	"pathquery/internal/words"
)

// The answer routes (/v1/query, /v1/batch, /learn) write their bodies
// with the hand-written appenders below, without reflection and byte for
// byte as encoding/json writes them. A result entry renders its rows
// once, on its first whole read (resultEntry.rows); a request then writes
// only its small header and those bytes.

const hexDigits = "0123456789abcdef"

// appendString appends s to dst as a JSON string, byte for byte as
// json.Encoder with SetEscapeHTML(false) writes it: '"' and '\' are
// backslash-escaped; \b, \f, \n, \r and \t take their short escapes and
// every other byte below 0x20 becomes \u00XX; each byte of invalid UTF-8
// becomes \ufffd; U+2028 and U+2029 become \u2028 and \u2029; everything
// else, '<', '>', '&' and DEL included, passes through.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is still to be copied verbatim
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// rowsField returns the key that opens a's row array — whichever of
// nodes, paths or counts its semantics fills — and the number of rows.
func rowsField(a *query.Answer) (string, int) {
	switch a.Semantics {
	case query.SemanticsWitness, query.SemanticsShortest:
		return `,"paths":[`, len(a.Paths)
	case query.SemanticsCount:
		return `,"counts":[`, len(a.Counts)
	default:
		return `,"nodes":[`, len(a.Nodes)
	}
}

// appendRows appends a's first n rows, comma-separated, resolving names
// on snap.
func appendRows(b []byte, a *query.Answer, snap *graph.Snapshot, n int) []byte {
	switch a.Semantics {
	case query.SemanticsWitness, query.SemanticsShortest:
		alpha := snap.Alphabet()
		for i, pw := range a.Paths[:n] {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"nodes":[`...)
			for j, v := range pw.Nodes {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendString(b, snap.NodeName(v))
			}
			b = append(b, `],"word":`...)
			b = appendString(b, words.String(pw.Word, alpha))
			b = append(b, '}')
		}
	case query.SemanticsCount:
		for i, nc := range a.Counts[:n] {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"node":`...)
			b = appendString(b, snap.NodeName(nc.Node))
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, int64(nc.Count), 10)
			b = append(b, '}')
		}
	default:
		for i, v := range a.Nodes[:n] {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, snap.NodeName(v))
		}
	}
	return b
}

// rows returns all of e's rows rendered, rendering them on the first
// call. Racing first readers may each render; the first to publish wins
// and every reader uses its rows. snap may be any snapshot e answers
// for: node names and symbols are append-only, so every epoch from e's
// own on renders its ids alike.
func (e *resultEntry) rows(snap *graph.Snapshot) []byte {
	if r := e.rendered.Load(); r != nil {
		return *r
	}
	_, n := rowsField(&e.ans)
	if r := appendRows(nil, &e.ans, snap, n); e.rendered.CompareAndSwap(nil, &r) {
		return r
	}
	return *e.rendered.Load()
}

// appendAnswer appends a as one answer object: the per-request header
// {"epoch","semantics","count","cached"}, then its first limit rows (all
// of them when limit ≤ 0, and the field omitted when there are none),
// then tr's stage breakdown as "trace" when tr is non-nil. Whole rows
// come from the entry, rendered once; a read that limit cuts renders its
// rows straight into b and leaves the entry's rows to whole reads. A
// witness or shortest limit already bounded the paths computed, so it
// never cuts them here.
func appendAnswer(b []byte, a *Answer, limit int, tr *telemetry.Trace) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, a.Epoch, 10)
	b = append(b, `,"semantics":`...)
	b = appendString(b, a.Semantics.String())
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(a.Count), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, a.Cached)
	ans := &a.ent.ans
	if field, n := rowsField(ans); n > 0 {
		b = append(b, field...)
		if limit > 0 && limit < n {
			b = appendRows(b, ans, a.snap, limit)
		} else {
			b = append(b, a.ent.rows(a.snap)...)
		}
		b = append(b, ']')
	}
	if tr != nil {
		// The spans are read before the total, after the last span
		// ended, so the sequential stages sum to at most total_ns.
		spans := tr.Spans()
		b = append(b, `,"trace":{"total_ns":`...)
		b = strconv.AppendInt(b, int64(tr.Total()), 10)
		b = append(b, `,"spans":[`...)
		for i, s := range spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = appendString(b, s.Name)
			b = append(b, `,"ns":`...)
			b = strconv.AppendInt(b, int64(s.Duration), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	return append(b, '}')
}

// appendBatch appends the /v1/batch answer {"epoch", "answers"}, each
// answer cut to its own request's limit.
func appendBatch(b []byte, epoch uint64, answers []Answer, reqs []Request) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"answers":[`...)
	for i := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAnswer(b, &answers[i], reqs[i].Limit, nil)
	}
	return append(b, "]}"...)
}

// appendLearn appends the /learn answer: the learned query, its plan key,
// k, the SCPs it was generalized from, and its selection cut to limit.
func appendLearn(b []byte, lr *LearnResult, limit int) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, lr.Epoch, 10)
	b = append(b, `,"query":`...)
	b = appendString(b, lr.Source)
	b = append(b, `,"key":`...)
	b = appendString(b, lr.Key)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(lr.K), 10)
	b = append(b, `,"scps":[`...)
	alpha := lr.Selection.snap.Alphabet()
	for i, p := range lr.SCPs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, words.String(p, alpha))
	}
	b = append(b, `],"selection":`...)
	b = appendAnswer(b, &lr.Selection, limit, nil)
	return append(b, '}')
}

// wireBufs recycles the response buffers of the answer routes.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledWire is the largest buffer wireBufs keeps, so one huge answer
// does not stay pinned in the pool.
const maxPooledWire = 1 << 20

// writeWire sends one JSON body built by fill into a pooled buffer, with
// one Write, terminated by a newline as json.Encoder terminates it.
func writeWire(w http.ResponseWriter, fill func([]byte) []byte) {
	buf := wireBufs.Get().(*[]byte)
	b := append(fill((*buf)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	// A failed write is a gone client; there is no one left to tell.
	_, _ = w.Write(b)
	if cap(b) <= maxPooledWire {
		*buf = b[:0]
		wireBufs.Put(buf)
	}
}

// The body routes (/v1/query, /v1/batch, /learn and /mutate) read their
// requests with the strict decoder below, also without reflection. It
// accepts exactly the bodies json.Decoder accepts with
// DisallowUnknownFields and nothing but whitespace after the value, and
// decodes them to the same values (FuzzV1Query and FuzzDecodeBody hold
// it to that, against encoding/json):
//
//   - a key selects the field it names exactly or under bytes.EqualFold,
//     so "QUERY" and "ſemantics" select fields; any other key is
//     rejected, at every depth;
//   - \uXXXX escapes decode in keys and values: a surrogate pair
//     combines, and any other surrogate becomes U+FFFD without consuming
//     the escape after it; each byte of invalid UTF-8 becomes U+FFFD, and
//     raw bytes below 0x20 are rejected;
//   - the last of a repeated key wins, and a repeated array decodes into
//     the earlier array's elements, as far as its capacity holds them,
//     before it is cut to its own length;
//   - null leaves a string, an int or an element object unchanged and
//     sets a slice to nil; a body that is null is the zero request;
//   - an int field takes an integer literal that fits in an int; a
//     fraction, an exponent or a quoted number is rejected.

// batchRequest is the /v1/batch body.
type batchRequest struct {
	Requests []Request `json:"requests"`
}

// learnRequest is the /learn body.
type learnRequest struct {
	Pos   []string `json:"pos"`
	Neg   []string `json:"neg"`
	K     int      `json:"k"`
	MaxK  int      `json:"maxk"`
	Limit int      `json:"limit"`
}

// mutationRequest is the /mutate body.
type mutationRequest struct {
	Edges []EdgeSpec `json:"edges"`
}

// requestBody is the set of request bodies the decoder reads.
type requestBody interface {
	Request | batchRequest | learnRequest | mutationRequest
}

// The field tables: the keys each body shape's object takes.
var (
	requestKeys  = []string{"query", "semantics", "from", "limit", "maxLen"}
	batchKeys    = []string{"requests"}
	learnKeys    = []string{"pos", "neg", "k", "maxk", "limit"}
	mutationKeys = []string{"edges"}
	edgeKeys     = []string{"from", "label", "to"}
)

// decodeBody reads r's body, at most MaxBodyBytes of it, into a pooled
// buffer and decodes it into into. Otherwise it answers the error
// envelope, 413 body_too_large for a body over the limit whatever it
// holds and 400 bad_body for any other, and returns false.
func decodeBody[T requestBody](w http.ResponseWriter, r *http.Request, into *T) bool {
	buf := wireBufs.Get().(*[]byte)
	b, err := readBody(w, r, (*buf)[:0])
	if err == nil {
		err = decodeJSON(b, into)
	}
	if cap(b) <= maxPooledWire {
		*buf = b[:0]
		wireBufs.Put(buf)
	}
	if err == nil {
		return true
	}
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		WriteError(w, &APIError{
			Code:    "body_too_large",
			Status:  http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
		})
		return false
	}
	WriteError(w, badRequest("bad_body", "bad request body: %v", err))
	return false
}

// decodeJSON decodes b, one JSON value and nothing but whitespace
// around it, into into.
func decodeJSON[T requestBody](b []byte, into *T) error {
	d := decoder{b: b}
	switch v := any(into).(type) {
	case *Request:
		d.request(v)
	case *batchRequest:
		d.batch(v)
	case *learnRequest:
		d.learn(v)
	case *mutationRequest:
		d.mutation(v)
	}
	d.end()
	return d.err
}

// readBody appends r's whole body to b through http.MaxBytesReader.
func readBody(w http.ResponseWriter, r *http.Request, b []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if cap(b) < 512 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decoder scans one request body. Its first error sticks: every step
// after it is a no-op, and decodeBody reports it.
type decoder struct {
	b   []byte
	i   int // the read position in b
	err error
	tmp []byte // the last string that needed unescaping
}

func (d *decoder) request(r *Request) {
	for more := d.object(); more; more = d.more('}') {
		switch d.key(requestKeys) {
		case "query":
			d.str(&r.Query)
		case "semantics":
			d.str(&r.Semantics)
		case "from":
			d.str(&r.From)
		case "limit":
			d.int(&r.Limit)
		case "maxLen":
			d.int(&r.MaxLen)
		}
	}
}

func (d *decoder) batch(b *batchRequest) {
	for more := d.object(); more; more = d.more('}') {
		if d.key(batchKeys) == "requests" {
			array(d, &b.Requests)
		}
	}
}

func (d *decoder) learn(l *learnRequest) {
	for more := d.object(); more; more = d.more('}') {
		switch d.key(learnKeys) {
		case "pos":
			array(d, &l.Pos)
		case "neg":
			array(d, &l.Neg)
		case "k":
			d.int(&l.K)
		case "maxk":
			d.int(&l.MaxK)
		case "limit":
			d.int(&l.Limit)
		}
	}
}

func (d *decoder) mutation(m *mutationRequest) {
	for more := d.object(); more; more = d.more('}') {
		if d.key(mutationKeys) == "edges" {
			array(d, &m.Edges)
		}
	}
}

func (d *decoder) edge(e *EdgeSpec) {
	for more := d.object(); more; more = d.more('}') {
		switch d.key(edgeKeys) {
		case "from":
			d.str(&e.From)
		case "label":
			d.str(&e.Label)
		case "to":
			d.str(&e.To)
		}
	}
}

// array decodes a JSON array into *dst as encoding/json decodes one into
// a slice: element i decodes into the slice's element i wherever its
// capacity holds one, and the slice is then cut to the array's length; []
// leaves an empty slice and null a nil one.
func array[T string | Request | EdgeSpec](d *decoder, dst *[]T) {
	if d.null() {
		*dst = nil
		return
	}
	s, n := *dst, 0
	for more := d.open('[', ']'); more; more = d.more(']') {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		switch e := any(&s[n]).(type) {
		case *string:
			d.str(e)
		case *Request:
			d.request(e)
		case *EdgeSpec:
			d.edge(e)
		}
		n++
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// unexpected fails at the read position, which does not hold want.
func (d *decoder) unexpected(want string) {
	if d.i >= len(d.b) {
		d.fail("unexpected end of body, want %s", want)
	} else {
		d.fail("unexpected %q at offset %d, want %s", d.b[d.i], d.i, want)
	}
}

// next skips whitespace and returns the byte at the read position: 0 at
// the end of the body and after an error.
func (d *decoder) next() byte {
	for d.err == nil && d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// end checks that nothing but whitespace follows the value: a second
// request concatenated onto the first must not be answered as if the
// body were the first alone.
func (d *decoder) end() {
	if d.next(); d.err == nil && d.i < len(d.b) {
		d.fail("unexpected %q at offset %d after the JSON value", d.b[d.i], d.i)
	}
}

// null consumes a null literal if one is next, and reports whether it
// did or failed on a literal that starts like one.
func (d *decoder) null() bool {
	if d.next() != 'n' {
		return false
	}
	if !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.unexpected("null")
		return true
	}
	d.i += 4
	return true
}

// object consumes an object's opening brace and reports whether a member
// follows, consuming the closing brace if not; a null holds no members.
func (d *decoder) object() bool {
	return !d.null() && d.open('{', '}')
}

// open consumes the opening bracket of an object or array and reports
// whether a member or element follows, consuming the closing one if not.
func (d *decoder) open(open, close byte) bool {
	if d.next() != open {
		d.unexpected(string(open))
		return false
	}
	d.i++
	if d.next() == close {
		d.i++
		return false
	}
	return d.err == nil
}

// more consumes the comma before the next member or element and reports
// whether one follows, consuming the closing bracket if not.
func (d *decoder) more(close byte) bool {
	switch d.next() {
	case ',':
		d.i++
		return true
	case close:
		d.i++
		return false
	}
	d.unexpected("',' or " + string(close))
	return false
}

// key decodes a member's key and the colon after it, and returns the
// field of keys the key selects; any other key fails.
func (d *decoder) key(keys []string) string {
	k, ok := d.quoted("a key")
	if !ok {
		return ""
	}
	name := selects(keys, k)
	if name == "" {
		d.fail("unknown field %q", k)
		return ""
	}
	if d.next() != ':' {
		d.unexpected("':'")
		return ""
	}
	d.i++
	return name
}

// selects returns the field of keys that key k selects, as encoding/json
// matches keys: the one k equals, else the one it equals under case
// folding, else "".
func selects(keys []string, k []byte) string {
	for _, f := range keys {
		if string(k) == f {
			return f
		}
	}
	for _, f := range keys {
		if bytes.EqualFold(k, []byte(f)) {
			return f
		}
	}
	return ""
}

// str decodes a JSON string into *dst; null leaves *dst unchanged.
func (d *decoder) str(dst *string) {
	if d.null() {
		return
	}
	if s, ok := d.quoted("a string"); ok {
		*dst = string(s)
	}
}

// int decodes a JSON number into *dst as encoding/json does, through
// strconv.ParseInt: only an integer literal that fits in an int passes.
// null leaves *dst unchanged.
func (d *decoder) int(dst *int) {
	if d.null() {
		return
	}
	neg := d.next() == '-'
	start, i := d.i, d.i
	if neg {
		i++
	}
	if i >= len(d.b) || d.b[i] < '0' || d.b[i] > '9' {
		d.i = i
		d.unexpected("an integer")
		return
	}
	limit := uint64(math.MaxInt) // the bound on the magnitude
	if neg {
		limit++
	}
	var n uint64
	if d.b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
			digit := uint64(d.b[i] - '0')
			if n > (limit-digit)/10 {
				d.fail("number at offset %d overflows an int", start)
				return
			}
			n = n*10 + digit
		}
	}
	d.i = i // a fraction or an exponent fails at the next member
	if neg {
		n = -n
	}
	*dst = int(n)
}

// quoted decodes the JSON string at the read position. Its bytes alias
// the body, or d.tmp where the string holds an escape or invalid UTF-8,
// and stay valid until the next call.
func (d *decoder) quoted(want string) ([]byte, bool) {
	if d.next() != '"' {
		d.unexpected(want)
		return nil, false
	}
	start := d.i + 1
	for i := start; i < len(d.b); {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.b[start:i], true
		case c == '\\' || c < 0x20:
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.b[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(d.b)
	d.unexpected(`'"'`)
	return nil, false
}

// unquote finishes quoted from d.b[i], the string's first byte that is
// not copied as it stands, decoding d.b[start:] into d.tmp.
func (d *decoder) unquote(start, i int) ([]byte, bool) {
	t := append(d.tmp[:0], d.b[start:i]...)
	for i < len(d.b) {
		c := d.b[i]
		switch {
		case c == '"':
			d.i, d.tmp = i+1, t
			return t, true
		case c == '\\':
			var n int
			if t, n = d.escape(t, i); n == 0 {
				return nil, false
			}
			i += n
		case c < 0x20:
			d.i = i
			d.unexpected("a string character")
			return nil, false
		case c < utf8.RuneSelf:
			t = append(t, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.b[i:])
			t = utf8.AppendRune(t, r) // U+FFFD for an invalid byte
			i += size
		}
	}
	d.i = len(d.b)
	d.unexpected(`'"'`)
	return nil, false
}

// escape appends what the escape at d.b[i] stands for to t and returns
// the escape's length, or 0 when it is not one. A surrogate decodes only
// as the high half of a pair whose low half is the next escape; any other
// becomes U+FFFD, and the escape after it decodes on its own.
func (d *decoder) escape(t []byte, i int) ([]byte, int) {
	if i+1 < len(d.b) {
		switch c := d.b[i+1]; c {
		case '"', '\\', '/':
			return append(t, c), 2
		case 'b', 'f', 'n', 'r', 't':
			return append(t, "\b\f\n\r\t"[strings.IndexByte("bfnrt", c)]), 2
		case 'u':
			r := u4(d.b[i:])
			if r < 0 {
				break
			}
			n := 6
			if utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, u4(d.b[i+6:])); r != utf8.RuneError {
					n += 6
				}
			}
			return utf8.AppendRune(t, r), n
		}
	}
	d.i = i
	d.unexpected("an escape")
	return t, 0
}

// u4 decodes the \uXXXX escape at the start of b, or returns -1.
func u4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
