package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names.  Every span is recorded by this package, around a call
// into a layer; nothing inside the program under test records spans.
const (
	spanRTT      = "client.rtt"         // one worker HTTP round trip, request sent to body closed
	spanSubmit   = "jobs.submit"        // one POST /jobs round trip of the submitter
	spanHandler  = "icserver.handler"   // the server's http.Handler, child of the round trip that carried its id
	spanCoreCall = "icserver.core_call" // one direct Server.ReportAllocate call (fly_inproc)
	spanCompute  = "client.compute"     // the tasks of one grant, first task started to last task finished
	spanFsync    = "wal.fsync"          // one journal fsync, child of the handler it blocked (if any)
)

// spanHeader carries the round trip's span id to the handler wrapper.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary.  Req is shared by all
// spans of one request; times are nanoseconds since the process origin.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	// Actor is the fleet client that owns the span, or -1 for server-side
	// and submitter spans, which are not part of the fleet's time budget.
	Actor int   `json:"actor"`
	Round int   `json:"round"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// origin anchors span times; time.Since keeps them monotonic.
var origin = time.Now()

// tracer collects the spans and journal counters of one traced round.
// A nil *tracer means the round is untraced: no span is recorded, no
// header is stamped, the handler is not wrapped and the journal gets no
// observers.
type tracer struct {
	round int
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	walRecords atomic.Int64
	walBytes   atomic.Int64
}

func (t *tracer) add(name string, id, parent, req uint64, actor int, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Req: req, Actor: actor, Round: t.round,
		Start: int64(start.Sub(origin)), End: int64(end.Sub(origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.  Server-side goroutines
// (a handler finishing after its reply, the journal's flusher) may still
// be adding, so the round analyzes a copy taken under the lock.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// fsyncObserver and appendObserver are the wal.Options hooks.
func (t *tracer) fsyncObserver(d time.Duration) {
	end := time.Now()
	t.add(spanFsync, t.ids.Add(1), 0, 0, -1, end.Add(-d), end)
}

func (t *tracer) appendObserver(bytes int) {
	t.walRecords.Add(1)
	t.walBytes.Add(int64(bytes))
}

// handler wraps the server's http.Handler in a span whose parent is the
// round trip named by the request's span header.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		req, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		t.add(spanHandler, t.ids.Add(1), req, req, -1, start, end)
	})
}

// exchange is one request as its client saw it.  Exact samples are kept
// whether or not the round is traced: grant_p50_us is an end-to-end
// metric and is measured with tracing off.
type exchange struct {
	start time.Time
	dur   time.Duration
	// report marks a report-and-grant exchange (POST /report) as opposed
	// to a bootstrap or idle poll of /tasks.
	report bool
}

// clientProbe is the http.RoundTripper of one fleet client (or of the
// job submitter) and the timer around its compute callback.  A client
// runs on one goroutine, so the probe needs no lock.
type clientProbe struct {
	actor int
	name  string // spanRTT or spanSubmit
	next  http.RoundTripper
	tr    *tracer

	exchanges      []exchange
	refused        int // transport errors and 4xx/5xx replies other than 410 Gone
	sent, received int64

	computeStart, computeEnd time.Time // the open compute span; zero when none
}

func (p *clientProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	p.flushCompute()
	var id uint64
	if p.tr != nil {
		id = p.tr.ids.Add(1)
		req = req.Clone(req.Context()) // a RoundTripper may not modify the caller's request
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	p.sent += req.ContentLength
	report := strings.HasSuffix(req.URL.Path, "/report")
	start := time.Now()
	resp, err := p.next.RoundTrip(req)
	if err != nil {
		// A request cut off by the round's own cancellation is how the
		// jobs_mix fleet is stopped, not a refusal.
		if req.Context().Err() == nil {
			p.refused++
			p.finish(id, start, report)
		}
		return nil, err
	}
	// 410 Gone is how /tasks says "finished"; every other 4xx/5xx is a
	// refusal the workloads are chosen never to provoke.
	if resp.StatusCode >= 400 && resp.StatusCode != http.StatusGone {
		p.refused++
	}
	resp.Body = &probeBody{ReadCloser: resp.Body, p: p, id: id, start: start, report: report}
	return resp, nil
}

func (p *clientProbe) finish(id uint64, start time.Time, report bool) {
	end := time.Now()
	p.exchanges = append(p.exchanges, exchange{start: start, dur: end.Sub(start), report: report})
	if p.tr != nil {
		p.tr.add(p.name, id, 0, id, p.actor, start, end)
	}
}

// probeBody ends the round trip when the client closes the body, so the
// span covers reading the reply, not just its headers.
type probeBody struct {
	io.ReadCloser
	p      *clientProbe
	id     uint64
	start  time.Time
	report bool
}

func (b *probeBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	b.p.received += int64(n)
	return n, err
}

func (b *probeBody) Close() error {
	err := b.ReadCloser.Close()
	b.p.finish(b.id, b.start, b.report)
	return err
}

// compute runs one task.  In a traced round consecutive tasks between
// two requests are merged into one compute span, so a grant of 16 tasks
// costs one span, not 16.
func (p *clientProbe) compute(task func()) {
	if p.tr == nil {
		task()
		return
	}
	if p.computeStart.IsZero() {
		p.computeStart = time.Now()
	}
	task()
	p.computeEnd = time.Now()
}

func (p *clientProbe) flushCompute() {
	if p.tr == nil || p.computeStart.IsZero() {
		return
	}
	p.tr.add(spanCompute, p.tr.ids.Add(1), 0, 0, p.actor, p.computeStart, p.computeEnd)
	p.computeStart = time.Time{}
}

// grantsSince returns, in µs, the report-and-grant exchanges that began
// at or after from, and the number of exchanges of any kind since then.
func grantsSince(probes []*clientProbe, from time.Time) (grantsUS []float64, requests int) {
	for _, p := range probes {
		for _, e := range p.exchanges {
			if e.start.Before(from) {
				continue
			}
			requests++
			if e.report {
				grantsUS = append(grantsUS, float64(e.dur)/1e3)
			}
		}
	}
	return grantsUS, requests
}

// analyze turns one traced round's spans into per-layer metrics.  Only
// spans that start inside [from, from+wall] count, which drops a
// workload's untimed warm-up.  The fleet's time budget is built from
// self times: a span's duration minus the part its children cover.
//
//	fleet-seconds = clients × wall
//	              = compute + client.self + client.idle
//	              + wire + (handler − fsync) + fsync + unexplained
func analyze(spans []span, clients int, from time.Time, wall time.Duration, m map[string]float64) {
	lo := int64(from.Sub(origin))
	hi := lo + int64(wall)
	byID := make(map[uint64]int, len(spans))
	var fsyncs []int // indices of the round's fsync spans, in start order
	for i, s := range spans {
		byID[s.ID] = i
		if s.Name == spanFsync && s.Start >= lo && s.Start <= hi {
			fsyncs = append(fsyncs, i)
		}
	}
	sort.Slice(fsyncs, func(i, j int) bool { return spans[fsyncs[i]].Start < spans[fsyncs[j]].Start })

	var rtt, coreCall, submit, handler, wire, fsyncDur []float64
	var computeNS, fsyncCoverNS float64
	timeline := make([][]span, clients) // per fleet client, in start order
	for i := range spans {
		s := &spans[i]
		if s.Start < lo || s.Start > hi {
			continue
		}
		switch s.Name {
		case spanRTT:
			rtt = append(rtt, s.dur())
		case spanCoreCall:
			coreCall = append(coreCall, s.dur())
		case spanSubmit:
			submit = append(submit, s.dur())
		case spanCompute:
			computeNS += s.dur()
		case spanFsync:
			fsyncDur = append(fsyncDur, s.dur())
		case spanHandler:
			pi, ok := byID[s.Parent]
			if !ok || spans[pi].Name != spanRTT {
				continue // the submitter's POST /jobs: not a fleet request
			}
			handler = append(handler, s.dur())
			wire = append(wire, spans[pi].dur()-s.dur())
			// The fsyncs that ran while this handler was open are its
			// children: it either issued them or waited behind them.
			for _, k := range fsyncs {
				f := &spans[k]
				if f.Start >= s.End {
					break
				}
				if f.End <= s.Start {
					continue
				}
				if f.Parent == 0 {
					f.Parent, f.Req = s.ID, s.Req
				}
				fsyncCoverNS += float64(min(f.End, s.End) - max(f.Start, s.Start))
			}
		}
		if s.Actor >= 0 && s.Actor < clients {
			timeline[s.Actor] = append(timeline[s.Actor], *s)
		}
	}

	// Walk each client's timeline.  The gap on either side of a compute
	// span is the client's own work (JSON, bookkeeping); a gap between
	// two requests with no compute between them is an idle back-off.
	var selfNS, idleNS float64
	for _, tl := range timeline {
		sort.Slice(tl, func(i, j int) bool { return tl[i].Start < tl[j].Start })
		for i := 1; i < len(tl); i++ {
			gap := float64(tl[i].Start - tl[i-1].End)
			if gap < 0 {
				continue
			}
			if tl[i].Name == spanCompute || tl[i-1].Name == spanCompute {
				selfNS += gap
			} else {
				idleNS += gap
			}
		}
	}

	fleetNS := float64(clients) * float64(wall)
	m["client.requests"] = float64(len(rtt) + len(coreCall))
	m["client.rtt_p50_us"] = quantile(rtt, 0.50) / 1e3
	m["client.rtt_p99_us"] = quantile(rtt, 0.99) / 1e3
	m["client.compute_s"] = computeNS / 1e9
	m["client.self_s"] = selfNS / 1e9
	m["client.idle_s"] = idleNS / 1e9
	m["http.wire_s"] = sum(wire) / 1e9
	m["http.wire_p50_us"] = quantile(wire, 0.50) / 1e3
	m["icserver.handler_s"] = sum(handler) / 1e9
	m["icserver.handler_p50_us"] = quantile(handler, 0.50) / 1e3
	m["icserver.handler_p99_us"] = quantile(handler, 0.99) / 1e3
	m["icserver.core_call_s"] = sum(coreCall) / 1e9
	m["icserver.core_call_p50_us"] = quantile(coreCall, 0.50) / 1e3
	m["icserver.core_call_p99_us"] = quantile(coreCall, 0.99) / 1e3
	m["jobs.submit_p50_us"] = quantile(submit, 0.50) / 1e3
	m["jobs.submit_p99_us"] = quantile(submit, 0.99) / 1e3
	m["wal.fsyncs"] = float64(len(fsyncDur))
	m["wal.fsync_s"] = sum(fsyncDur) / 1e9
	m["wal.fsync_p50_us"] = quantile(fsyncDur, 0.50) / 1e3
	m["wal.fsync_p99_us"] = quantile(fsyncDur, 0.99) / 1e3
	m["wal.fsync_share"] = sum(fsyncDur) / float64(wall)
	m["budget.fleet_s"] = fleetNS / 1e9
	m["budget.fsync_blocked_s"] = fsyncCoverNS / 1e9
	explained := computeNS + selfNS + idleNS + sum(rtt) + sum(coreCall)
	m["budget.unexplained_share"] = (fleetNS - explained) / fleetNS
}

// budgetLine renders the fleet-seconds budget of one traced round.
func budgetLine(m map[string]float64) string {
	return fmt.Sprintf("budget (fleet-seconds): compute %.3f + client.self %.3f + client.idle %.3f + wire %.3f"+
		" + (handler − fsync) %.3f + fsync %.3f + core calls %.3f = %.3f of %.3f; unexplained %.2f %%",
		m["client.compute_s"], m["client.self_s"], m["client.idle_s"], m["http.wire_s"],
		m["icserver.handler_s"]-m["budget.fsync_blocked_s"], m["budget.fsync_blocked_s"], m["icserver.core_call_s"],
		(1-m["budget.unexplained_share"])*m["budget.fleet_s"], m["budget.fleet_s"], 100*m["budget.unexplained_share"])
}

// writeSpans writes spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
