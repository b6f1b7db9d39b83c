package icserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"icsched/internal/dag"
)

// The one task wire, served by this package and by the job service
// (internal/jobs) alike: its hot shapes — the /report request and reply,
// and the /tasks reply — are encoded here by hand with strconv.Append*,
// and decoded by a strict fast-path parser that knows only flat objects
// of integers, booleans, null, integer arrays and one plain string (a
// job id) under known keys.  On anything else the parser declines and
// the exact encoding/json call it stands in for decodes the body, so the
// language each side accepts is encoding/json's.  A job service's bodies
// add "job" (and "jobFinished" on a reply), which a single-dag server
// never writes.  Every other body (/status, /healthz, typed errors, job
// submissions) stays on encoding/json.

// bufPool holds the handlers' request-body and reply buffers.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxBodyBytes {
		return // an outsized body's buffer is not worth keeping
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// jsonContentType is shared by every reply: net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeBody sends a hand-encoded JSON reply with its Content-Length.
func writeBody(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(b))}
	_, _ = w.Write(b)
}

// ReadAsk decodes a POST /tasks body, {"k":n}, bounded by maxBodyBytes.
// On a malformed body or k < 1 it writes the 400 and reports false.
func ReadAsk(w http.ResponseWriter, r *http.Request) (k int, ok bool) {
	var req tasksRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "icserver: malformed /tasks body: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	if req.K < 1 {
		http.Error(w, fmt.Sprintf("icserver: batch size %d < 1", req.K), http.StatusBadRequest)
		return 0, false
	}
	return req.K, true
}

// ReadReport decodes a POST /report body, bounded by maxBodyBytes, with
// the fast path.  When that declines, or the body could not be read in
// full, json.NewDecoder decodes the same byte stream, so the handler
// accepts what encoding/json accepts and fails with its errors.  On a
// malformed body or k < 0 it writes the 400 and reports false; the
// caller fences the epoch.
func ReadReport(w http.ResponseWriter, r *http.Request) (ReportRequest, bool) {
	buf := getBuf()
	defer putBuf(buf)
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b, err := readAll((*buf)[:0], body)
	*buf = b
	req, ok := parseReportRequest(b)
	if err != nil || !ok {
		// The reader keeps returning its first error (io.EOF included), so
		// the decoder sees exactly the stream a direct decode would have.
		req = ReportRequest{}
		err = json.NewDecoder(io.MultiReader(bytes.NewReader(b), body)).Decode(&req)
	}
	if err != nil {
		http.Error(w, "icserver: malformed /report body: "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	if req.K < 0 {
		http.Error(w, fmt.Sprintf("icserver: piggyback batch size %d < 0", req.K), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// WriteGrant sends g as the 200 /tasks reply.
func WriteGrant(w http.ResponseWriter, g *Grant) {
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendGrant(*buf, g)
	writeBody(w, *buf)
}

// WriteReply sends r as the 200 /report reply.
func WriteReply(w http.ResponseWriter, r *ReportReply) {
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendReportReply(*buf, r)
	writeBody(w, *buf)
}

// reportBody encodes g's ack, piggybacking an ask for k tasks, into a
// fresh slice, not a pooled one: net/http's transport may still be
// reading a request body after Do returns.
func reportBody(g *Grant, done, failed []dag.NodeID, k int) []byte {
	b := make([]byte, 0, 48+len(g.Job)+8*(len(done)+len(failed)))
	return appendReportRequest(b, &ReportRequest{Job: g.Job, Done: done, Failed: failed, K: k, Epoch: g.Epoch})
}

// appendReportRequest appends r exactly as json.Marshal encodes it.
func appendReportRequest(b []byte, r *ReportRequest) []byte {
	b = appendJob(append(b, '{'), r.Job)
	b = appendIDField(b, `"done":`, r.Done)
	b = appendIDField(b, `"failed":`, r.Failed)
	b = appendCount(b, `"k":`, r.K)
	return append(appendEpoch(b, r.Epoch), '}')
}

// appendGrant appends g, the /tasks reply, as json.Encoder writes it
// (newline included).
func appendGrant(b []byte, g *Grant) []byte {
	b = appendJob(append(b, '{'), g.Job)
	b = appendEpoch(b, g.Epoch)
	b = append(appendComma(b), `"tasks":`...)
	b = appendIDs(b, g.Tasks)
	return append(appendNames(b, g.Names), "}\n"...)
}

// appendReportReply appends r as json.Encoder writes it (newline
// included).
func appendReportReply(b []byte, r *ReportReply) []byte {
	b = append(b, '{')
	b = appendCount(b, `"newlyEligible":`, r.NewlyEligible)
	b = appendCount(b, `"completed":`, r.Completed)
	b = appendCount(b, `"duplicates":`, r.Duplicates)
	b = appendCount(b, `"requeued":`, r.Requeued)
	b = appendCount(b, `"quarantined":`, r.Quarantined)
	b = appendJob(b, r.Job)
	b = appendIDField(b, `"tasks":`, r.Tasks)
	b = appendNames(b, r.Names)
	if r.Finished {
		b = appendComma(b)
		b = append(b, `"finished":true`...)
	}
	if r.JobFinished {
		b = appendComma(b)
		b = append(b, `"jobFinished":true`...)
	}
	return append(appendEpoch(b, r.Epoch), "}\n"...)
}

// appendCount appends an omitempty integer field.
func appendCount(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(appendComma(b), key...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendComma separates a field from the one before it, if any.
func appendComma(b []byte) []byte {
	if b[len(b)-1] == '{' {
		return b
	}
	return append(b, ',')
}

// appendEpoch appends an omitempty "epoch" field.
func appendEpoch(b []byte, epoch uint64) []byte {
	if epoch == 0 {
		return b
	}
	return strconv.AppendUint(append(appendComma(b), `"epoch":`...), epoch, 10)
}

// appendJob appends an omitempty "job" field.
func appendJob(b []byte, job string) []byte {
	if job == "" {
		return b
	}
	return appendString(append(appendComma(b), `"job":`...), job)
}

// appendIDField appends an omitempty id-array field.
func appendIDField(b []byte, key string, ids []dag.NodeID) []byte {
	if len(ids) == 0 {
		return b
	}
	return appendIDs(append(appendComma(b), key...), ids)
}

// appendIDs appends ids as a JSON array, nil as null.
func appendIDs(b []byte, ids []dag.NodeID) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendNames appends an omitempty "names" field.
func appendNames(b []byte, names []string) []byte {
	if len(names) == 0 {
		return b
	}
	b = append(appendComma(b), `"names":[`...)
	for i, s := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string.  A string json.Marshal would
// escape (controls, quotes, HTML characters, non-ASCII) is encoded by
// json.Marshal itself: names and job ids are plain on the hot path.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// parseReportRequest is the fast path for a /report request body.
func parseReportRequest(b []byte) (r ReportRequest, ok bool) {
	p := openFlat(b)
	for p.next() {
		switch string(p.key) {
		case "job":
			p.once(4)
			p.str(&r.Job)
		case "done":
			p.once(0)
			p.ids(&r.Done)
		case "failed":
			p.once(1)
			p.ids(&r.Failed)
		case "k":
			p.once(2)
			p.int(&r.K)
		case "epoch":
			p.once(3)
			p.uint(&r.Epoch)
		default:
			p.bad = true
		}
	}
	return r, p.ok()
}

// parseReportReply is the fast path for a /report reply.  A reply
// carrying names declines: the parser reads no string arrays.
func parseReportReply(b []byte) (r ReportReply, ok bool) {
	p := openFlat(b)
	for p.next() {
		switch string(p.key) {
		case "newlyEligible":
			p.once(0)
			p.int(&r.NewlyEligible)
		case "completed":
			p.once(1)
			p.int(&r.Completed)
		case "duplicates":
			p.once(2)
			p.int(&r.Duplicates)
		case "requeued":
			p.once(3)
			p.int(&r.Requeued)
		case "quarantined":
			p.once(4)
			p.int(&r.Quarantined)
		case "tasks":
			p.once(5)
			p.ids(&r.Tasks)
		case "finished":
			p.once(6)
			p.bool(&r.Finished)
		case "epoch":
			p.once(7)
			p.uint(&r.Epoch)
		case "job":
			p.once(8)
			p.str(&r.Job)
		case "jobFinished":
			p.once(9)
			p.bool(&r.JobFinished)
		default:
			p.bad = true
		}
	}
	return r, p.ok()
}

// parseGrant is the fast path for a /tasks reply.  A labeled dag's grant
// carries names, and declines.
func parseGrant(b []byte) (g Grant, ok bool) {
	p := openFlat(b)
	for p.next() {
		switch string(p.key) {
		case "job":
			p.once(2)
			p.str(&g.Job)
		case "tasks":
			p.once(0)
			p.ids(&g.Tasks)
		case "epoch":
			p.once(1)
			p.uint(&g.Epoch)
		default:
			p.bad = true
		}
	}
	return g, p.ok()
}

// decodeFast decodes body with the fast path, falling back to
// json.Unmarshal when it declines.
func decodeFast[T any](body []byte, fast func([]byte) (T, bool)) (T, error) {
	if v, ok := fast(body); ok {
		return v, nil
	}
	var v T
	err := json.Unmarshal(body, &v)
	return v, err
}

// readAll is io.ReadAll into a caller's buffer.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// flat scans one JSON object for the fast path.  Values are read by the
// typed methods; any deviation from the accepted subset — another value
// type, an unknown or repeated key, a number json would not put in the
// field — sets bad, and the caller falls back to encoding/json.
type flat struct {
	b      []byte
	i      int
	key    []byte
	seen   uint
	fields int
	closed bool
	bad    bool
}

func openFlat(b []byte) flat {
	p := flat{b: b}
	p.bad = !p.eat('{')
	return p
}

// next reads the next key and its colon, reporting false at the closing
// brace or on a malformed body.
func (p *flat) next() bool {
	if p.bad {
		return false
	}
	if p.eat('}') {
		p.closed = true
		return false
	}
	if p.fields > 0 && !p.eat(',') {
		p.bad = true
		return false
	}
	p.fields++
	p.key = p.plain() // only plain keys can be known ones
	if p.bad || !p.eat(':') {
		p.bad = true
		return false
	}
	return true
}

// plain reads a string of printable ASCII without escapes and returns
// what is between its quotes; anything else sets bad.
func (p *flat) plain() []byte {
	if !p.eat('"') {
		p.bad = true
		return nil
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		if c := p.b[p.i]; c < 0x20 || c >= 0x80 || c == '\\' {
			p.bad = true
			return nil
		}
		p.i++
	}
	if p.i == len(p.b) {
		p.bad = true
		return nil
	}
	p.i++
	return p.b[start : p.i-1]
}

// ok reports whether the whole body was one accepted object.
func (p *flat) ok() bool {
	p.space()
	return !p.bad && p.closed && p.i == len(p.b)
}

// once marks field bit as read; a repeated key declines.
func (p *flat) once(bit uint) {
	if p.seen&(1<<bit) != 0 {
		p.bad = true
	}
	p.seen |= 1 << bit
}

func (p *flat) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (p *flat) eat(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes s after optional whitespace.
func (p *flat) literal(s string) bool {
	p.space()
	if bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		p.i += len(s)
		return true
	}
	return false
}

// number scans an integer in JSON's grammar, -?(0|[1-9][0-9]*), of at
// most 18 digits, so it cannot overflow.  A fraction or exponent is left
// unread, which the structural check after the value then rejects.
func (p *flat) number() (int64, bool) {
	p.space()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var n int64
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		n = n*10 + int64(p.b[p.i]-'0')
		p.i++
	}
	if d := p.i - start; d == 0 || d > 18 || d > 1 && p.b[start] == '0' {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

func (p *flat) int(dst *int) {
	n, ok := p.number()
	if !ok || int64(int(n)) != n {
		p.bad = true
		return
	}
	*dst = int(n)
}

// uint reads an unsigned field; json rejects any sign there, even "-0".
func (p *flat) uint(dst *uint64) {
	if p.space(); p.i < len(p.b) && p.b[p.i] == '-' {
		p.bad = true
		return
	}
	n, ok := p.number()
	if !ok {
		p.bad = true
		return
	}
	*dst = uint64(n)
}

func (p *flat) bool(dst *bool) {
	switch {
	case p.literal("true"):
		*dst = true
	case p.literal("false"):
		*dst = false
	default:
		p.bad = true // null included: json would leave the field as it was
	}
}

// str reads a plain string field (see plain).  Anything else — null
// included, which json would leave as it was — declines.
func (p *flat) str(dst *string) {
	if s := p.plain(); !p.bad {
		*dst = string(s)
	}
}

// ids reads an array of task ids: null is a nil slice and [] an empty
// one, as json decodes them.
func (p *flat) ids(dst *[]dag.NodeID) {
	if p.literal("null") {
		*dst = nil
		return
	}
	if !p.eat('[') {
		p.bad = true
		return
	}
	out := []dag.NodeID{}
	for !p.eat(']') {
		if len(out) > 0 && !p.eat(',') {
			p.bad = true
			return
		}
		n, ok := p.number()
		if !ok || int64(dag.NodeID(n)) != n {
			p.bad = true
			return
		}
		out = append(out, dag.NodeID(n))
	}
	*dst = out
}
