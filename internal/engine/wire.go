package engine

import (
	"net/http"
	"strconv"
	"sync"
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
