package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The per-request documents of the admission path — the POST /v1/requests
// body in, the TicketView verdict out — are coded by hand here. The bytes
// are exactly encoding/json's: the verdict is what WriteJSON writes for a
// TicketView, and a submission the parser does not accept goes to the
// json.Decoder every other body takes. The struct tags on TicketView and
// Submission stay the documents' definition; FuzzTicketViewEncode and
// FuzzSubmissionDecode hold this file to them.

// maxPooledBuf is the largest buffer returned to bufPool; a rare huge body
// or route is left to the collector instead of pinning its memory.
const maxPooledBuf = 64 << 10

// bufPool recycles the byte buffers of the hand-coded path: one submission
// body read, one verdict encoded.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// putBuf returns b's storage to bufPool in bp.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*bp = b[:0]
	bufPool.Put(bp)
}

// writeTicket answers with one ticket view: the bytes WriteJSON writes for
// v, appended into a pooled buffer and sent in one Write.
func writeTicket(w http.ResponseWriter, code int, v *TicketView) {
	bp := bufPool.Get().(*[]byte)
	b := appendTicketView((*bp)[:0], v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
	putBuf(bp, b)
}

// indent is json.Encoder's SetIndent("", "  ") line start down to the
// deepest member of a TicketView, a request id's (depth 4).
const indent = "\n        "

// appendKey starts one object member at the given depth: the separator
// from the previous member (none for the first), a newline, the
// indentation and the quoted key. Keys are plain ASCII.
func appendKey(b []byte, first bool, depth int, key string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, indent[:1+2*depth]...)
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':', ' ')
}

// appendInt appends one integer member.
func appendInt(b []byte, first bool, depth int, key string, v int64) []byte {
	return strconv.AppendInt(appendKey(b, first, depth, key), v, 10)
}

// appendString quotes s as encoding/json does: printable ASCII other than
// '"', '\\' and the HTML-escaped '<', '>', '&' is copied; anything else
// (escapes, U+2028/2029, invalid UTF-8) is left to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTicketView appends v as WriteJSON encodes it: indented two spaces
// per level, omitempty members dropped when zero or empty, and the
// encoder's trailing newline.
func appendTicketView(b []byte, v *TicketView) []byte {
	b = append(b, '{')
	b = appendString(appendKey(b, true, 1, "id"), v.ID)
	b = appendString(appendKey(b, false, 1, "status"), string(v.Status))
	b = appendInt(b, false, 1, "item", int64(v.Item))
	if v.Epoch != 0 {
		b = appendInt(b, false, 1, "epoch", int64(v.Epoch))
	}
	b = appendInt(b, false, 1, "arrived", int64(v.Arrived))
	if len(v.Requests) > 0 {
		b = append(appendKey(b, false, 1, "requests"), '[')
		for i := range v.Requests {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendVerdict(b, &v.Requests[i])
		}
		b = append(b, "\n  ]"...)
	}
	if len(v.Route) > 0 {
		b = append(appendKey(b, false, 1, "route"), '[')
		for i := range v.Route {
			if i > 0 {
				b = append(b, ',')
			}
			tr := &v.Route[i]
			b = append(b, "\n    {"...)
			b = appendInt(b, true, 3, "Item", int64(tr.Item))
			b = appendInt(b, false, 3, "Link", int64(tr.Link))
			b = appendInt(b, false, 3, "From", int64(tr.From))
			b = appendInt(b, false, 3, "To", int64(tr.To))
			b = appendInt(b, false, 3, "Start", int64(tr.Start))
			b = appendInt(b, false, 3, "Duration", int64(tr.Duration))
			b = appendInt(b, false, 3, "Arrival", int64(tr.Arrival))
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// appendVerdict appends one element of TicketView.Requests (depth 2).
func appendVerdict(b []byte, rv *RequestVerdict) []byte {
	b = append(b, "\n    {"...)
	b = append(appendKey(b, true, 3, "request"), '{')
	b = appendInt(b, true, 4, "item", int64(rv.Request.Item))
	b = appendInt(b, false, 4, "index", int64(rv.Request.Index))
	b = append(b, "\n      }"...)
	b = appendInt(b, false, 3, "machine", int64(rv.Machine))
	b = appendString(appendKey(b, false, 3, "status"), string(rv.Status))
	b = appendInt(b, false, 3, "deadline", int64(rv.Deadline))
	if rv.Completion != 0 {
		b = appendInt(b, false, 3, "completion", int64(rv.Completion))
	}
	if rv.Reason != "" {
		b = appendString(appendKey(b, false, 3, "reason"), rv.Reason)
	}
	if rv.BlamedLink != 0 {
		b = appendInt(b, false, 3, "blamedLink", int64(rv.BlamedLink))
	}
	return append(b, "\n    }"...)
}

// decodeBody reads the request body once, at most maxBodyBytes of it, and
// decodes it into v: a *Submission in its canonical shape by
// parseSubmission, anything else by json.Decoder with unknown fields
// refused, which answers 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	bp := bufPool.Get().(*[]byte)
	b, rerr := readBody(r.Body, (*bp)[:0])
	defer putBuf(bp, b)
	if sub, ok := v.(*Submission); ok && rerr == nil {
		var s Submission
		if parseSubmission(b, &s) {
			*sub = s
			return true
		}
	}
	var src io.Reader = bytes.NewReader(b)
	if rerr != nil {
		// The decoder meets the read error where it met it reading the
		// body itself.
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// readBody appends at most maxBodyBytes of r to b.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	lr := io.LimitedReader{R: r, N: maxBodyBytes}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseSubmission decodes the canonical Submission body: one object of the
// known keys, exact case and none repeated, whose strings are printable
// ASCII without escapes and whose numbers are integer literals in range,
// with only whitespace after it. It reports false for every other body,
// which json.Decoder then decodes; on true, s holds exactly what the
// decoder would have stored.
func parseSubmission(b []byte, s *Submission) bool {
	p := parser{b: b}
	var seen uint8
	ok := p.object(func(key []byte) bool {
		var bit uint8
		switch string(key) {
		case "name":
			bit = 1
			str, ok := p.str()
			if !ok {
				return false
			}
			s.Name = string(str)
		case "sizeBytes":
			bit = 2
			n, ok := p.int(64)
			if !ok {
				return false
			}
			s.SizeBytes = n
		case "sources":
			bit = 4
			s.Sources = []SourceSpec{}
			if !p.array(func() bool {
				var src SourceSpec
				if !p.source(&src) {
					return false
				}
				s.Sources = append(s.Sources, src)
				return true
			}) {
				return false
			}
		case "requests":
			bit = 8
			s.Requests = []RequestSpec{}
			if !p.array(func() bool {
				var rq RequestSpec
				if !p.request(&rq) {
					return false
				}
				s.Requests = append(s.Requests, rq)
				return true
			}) {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	p.space()
	return ok && p.i == len(p.b)
}

// parser is parseSubmission's cursor over one body.
type parser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes c after optional whitespace.
func (p *parser) lit(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object walks one object, handing each member's key to member with the
// cursor at its value; member parses the value or reports false.
func (p *parser) object(member func(key []byte) bool) bool {
	if !p.lit('{') {
		return false
	}
	if p.lit('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.lit(':') || !member(key) {
			return false
		}
		if !p.lit(',') {
			return p.lit('}')
		}
	}
}

// array walks one array, calling elem with the cursor at each element.
func (p *parser) array(elem func() bool) bool {
	if !p.lit('[') {
		return false
	}
	if p.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.lit(',') {
			return p.lit(']')
		}
	}
}

// str reads a string of printable ASCII without escapes and returns its
// contents, which alias the body.
func (p *parser) str() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int reads an integer literal (JSON's grammar: no '+', no leading zeros,
// no fraction or exponent) that fits a signed integer of the given width.
func (p *parser) int(bits int) (int64, bool) {
	p.space()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var u uint64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		if p.i-start == 19 {
			return 0, false // past any int64; the decoder words the error
		}
		u = u*10 + uint64(p.b[p.i]-'0')
	}
	n := p.i - start
	if n == 0 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	if p.i < len(p.b) {
		if c := p.b[p.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if u > limit {
		return 0, false
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// source parses one element of Submission.Sources.
func (p *parser) source(src *SourceSpec) bool {
	var seen uint8
	return p.object(func(key []byte) bool {
		var (
			bit uint8
			n   int64
			ok  bool
		)
		switch string(key) {
		case "machine":
			bit = 1
			n, ok = p.int(strconv.IntSize)
			src.Machine = int(n)
		case "available":
			bit = 2
			n, ok = p.int(64)
			src.Available = Instant(n)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// request parses one element of Submission.Requests.
func (p *parser) request(rq *RequestSpec) bool {
	var seen uint8
	return p.object(func(key []byte) bool {
		var (
			bit uint8
			n   int64
			ok  bool
		)
		switch string(key) {
		case "machine":
			bit = 1
			n, ok = p.int(strconv.IntSize)
			rq.Machine = int(n)
		case "deadline":
			bit = 2
			n, ok = p.int(64)
			rq.Deadline = Instant(n)
		case "priority":
			bit = 4
			n, ok = p.int(strconv.IntSize)
			rq.Priority = int(n)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}
