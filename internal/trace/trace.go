// Package trace is the request-tracing substrate standing in for Zipkin in
// the paper's methodology (§3.1): every request produces a trace of spans,
// one per microservice invocation, from which response times, per-service
// execution times and call counts are extracted — exactly the inputs the
// paper feeds its offline analysis and MCF calculator.
package trace

import (
	"sort"
	"time"

	"servicefridge/internal/sim"
)

// Span records one microservice invocation within a request.
type Span struct {
	// Service is the invoked microservice.
	Service string
	// ServiceID is Service's dense index: its position in the names the
	// collector was presized with. The collector finds the service's
	// tally by it without hashing the name, and falls back to the name
	// when the index names another service.
	ServiceID int
	// Host is the server the invocation ran on.
	Host string
	// Submit is when the call was dispatched (enters the host queue).
	Submit sim.Time
	// Start is when it began executing on a core.
	Start sim.Time
	// End is when it completed.
	End sim.Time
	// FreqGHz is the host's operating frequency when the span started
	// executing (0 if unrecorded). Offline analyses use it to separate
	// DVFS-induced inflation from load-induced queueing — the critical-path
	// blame decomposition — without consulting the live cluster.
	FreqGHz float64
}

// Exec returns the span's pure execution time (core occupancy).
func (s Span) Exec() time.Duration { return s.End.Sub(s.Start) }

// Latency returns queueing plus execution time.
func (s Span) Latency() time.Duration { return s.End.Sub(s.Submit) }

// Queued returns the time spent waiting for a core.
func (s Span) Queued() time.Duration { return s.Start.Sub(s.Submit) }

// Trace is the full record of one request.
type Trace struct {
	// ID is a collector-unique request identifier.
	ID uint64
	// Region is the microservice region (API) the request targeted.
	Region string
	// Begin and Finish bracket the request end to end.
	Begin, Finish sim.Time
	// Spans lists every invocation, in recording order, when the collector
	// keeps spans; otherwise it stays empty.
	Spans []Span
	done  bool
	// openIdx is the trace's index in Collector.openList while open.
	openIdx int
}

// Response returns the request's end-to-end response time.
func (t *Trace) Response() time.Duration { return t.Finish.Sub(t.Begin) }

// CallCount returns how many times service was invoked in this request.
func (t *Trace) CallCount(service string) int {
	n := 0
	for _, s := range t.Spans {
		if s.Service == service {
			n++
		}
	}
	return n
}

// series is a finish-ordered store of completed-trace response times.
// Traces complete in simulation-time order, so finish is (normally)
// already sorted and warm-up queries reduce to one binary search; unsorted
// tracks the invariant so an out-of-order caller degrades to a scan
// instead of silently misfiltering. The zero series is empty and sorted.
type series struct {
	finish   []sim.Time
	resp     []time.Duration
	unsorted bool
}

func (s *series) add(finish sim.Time, resp time.Duration) {
	if n := len(s.finish); n > 0 && finish < s.finish[n-1] {
		s.unsorted = true
	}
	s.finish = append(s.finish, finish)
	s.resp = append(s.resp, resp)
}

// after returns the responses of entries finishing at or after cut. On the
// sorted fast path the result is a read-only view into the store.
func (s *series) after(cut sim.Time) []time.Duration {
	if s == nil {
		return nil
	}
	if !s.unsorted {
		i := sort.Search(len(s.finish), func(i int) bool { return s.finish[i] >= cut })
		return s.resp[i:]
	}
	var out []time.Duration
	for i, f := range s.finish {
		if f >= cut {
			out = append(out, s.resp[i])
		}
	}
	return out
}

// traceSlabSize is how many Trace structs one slab allocation covers.
const traceSlabSize = 256

// Collector gathers completed traces, like the Zipkin UI on the manager
// node. It also maintains running per-service tallies and finish-ordered
// response stores so that analyses do not re-walk (or re-allocate from)
// every span list per query.
type Collector struct {
	nextID uint64
	traces []*Trace
	// KeepSpans controls whether spans are recorded at all: span lists on
	// traces and the per-service execution tallies. Long experiments that
	// only need response times disable it, and AddSpan then stores nothing
	// (the OnSpan tap still fires), so span recording allocates nothing.
	KeepSpans bool

	// tallies holds each service's recorded execution times, in
	// registration order (Presize first); tallyOf indexes them by name.
	tallies []tally
	tallyOf map[string]int

	all      series
	byRegion map[string]*series

	// OnSpan and OnFinish, when non-nil, are invoked synchronously from
	// AddSpan and FinishTrace respectively — the live-telemetry taps. They
	// observe the same values the collector records and must not call back
	// into the collector. OnSpan gets the span's service, its ServiceID and
	// its execution time.
	OnSpan   func(service string, id int, exec time.Duration)
	OnFinish func(region string, resp time.Duration)

	// slab batches Trace allocations.
	slab []Trace

	// openList holds the open traces, in no particular order, so a
	// snapshot can enumerate (and a restore rewind) in-flight requests.
	// Each trace knows its index, so FinishTrace swap-removes in O(1).
	openList []*Trace
}

// NewCollector returns an empty collector that retains spans.
func NewCollector() *Collector {
	return &Collector{
		KeepSpans: true,
		tallyOf:   make(map[string]int),
		byRegion:  make(map[string]*series),
	}
}

// tally is one service's execution times in recording order.
type tally struct {
	service string
	exec    []time.Duration
}

// Presize registers the per-service execution tallies for the given
// services in order, so on a fresh collector services[i] is found by
// Span.ServiceID i, and reserves spansPerService capacity each (if
// positive) so early appends never reallocate on the hot path.
func (c *Collector) Presize(services []string, spansPerService int) {
	for _, s := range services {
		if _, ok := c.tallyOf[s]; !ok {
			c.tallyOf[s] = len(c.tallies)
			c.tallies = append(c.tallies, tally{service: s})
			if spansPerService > 0 {
				c.tallies[len(c.tallies)-1].exec = make([]time.Duration, 0, spansPerService)
			}
		}
	}
}

// tallyFor returns service's tally, by id when it names service.
func (c *Collector) tallyFor(service string, id int) *tally {
	if uint(id) < uint(len(c.tallies)) && c.tallies[id].service == service {
		return &c.tallies[id]
	}
	i, ok := c.tallyOf[service]
	if !ok {
		c.Presize([]string{service}, 0)
		i = len(c.tallies) - 1
	}
	return &c.tallies[i]
}

// Grow pre-allocates storage for about nTraces completed traces, so a run
// with a known request population never grows the finish-ordered stores.
func (c *Collector) Grow(nTraces int) {
	grow := func(s *series) {
		if cap(s.finish)-len(s.finish) < nTraces {
			f := make([]sim.Time, len(s.finish), len(s.finish)+nTraces)
			copy(f, s.finish)
			s.finish = f
			r := make([]time.Duration, len(s.resp), len(s.resp)+nTraces)
			copy(r, s.resp)
			s.resp = r
		}
	}
	grow(&c.all)
	for _, rs := range c.byRegion {
		grow(rs)
	}
	if cap(c.traces)-len(c.traces) < nTraces {
		ts := make([]*Trace, len(c.traces), len(c.traces)+nTraces)
		copy(ts, c.traces)
		c.traces = ts
	}
	if len(c.slab) < nTraces {
		c.slab = make([]Trace, nTraces)
	}
}

// allocTrace hands out one zeroed Trace from the current slab, cutting
// per-request allocations to one slab per traceSlabSize requests.
func (c *Collector) allocTrace() *Trace {
	if len(c.slab) == 0 {
		c.slab = make([]Trace, traceSlabSize)
	}
	t := &c.slab[0]
	c.slab = c.slab[1:]
	return t
}

// StartTrace opens a trace for a request entering region at time at.
func (c *Collector) StartTrace(region string, at sim.Time) *Trace {
	c.nextID++
	t := c.allocTrace()
	t.ID = c.nextID
	t.Region = region
	t.Begin = at
	t.openIdx = len(c.openList)
	c.openList = append(c.openList, t)
	return t
}

// AddSpan records a completed span of an open trace: with KeepSpans it
// appends the span to the trace and its exec time to the service's tally,
// and without it records nothing. The OnSpan tap fires either way.
func (c *Collector) AddSpan(t *Trace, s Span) {
	if t.done {
		panic("trace: AddSpan on a finished trace")
	}
	if c.KeepSpans {
		t.Spans = append(t.Spans, s)
		tl := c.tallyFor(s.Service, s.ServiceID)
		tl.exec = append(tl.exec, s.Exec())
	}
	if c.OnSpan != nil {
		c.OnSpan(s.Service, s.ServiceID, s.Exec())
	}
}

// FinishTrace closes the trace at time at and records it.
func (c *Collector) FinishTrace(t *Trace, at sim.Time) {
	if t.done {
		panic("trace: FinishTrace called twice")
	}
	t.Finish = at
	t.done = true
	n := len(c.openList) - 1
	last := c.openList[n]
	c.openList[t.openIdx] = last
	last.openIdx = t.openIdx
	c.openList[n] = nil
	c.openList = c.openList[:n]
	c.traces = append(c.traces, t)
	resp := t.Response()
	c.all.add(at, resp)
	rs := c.byRegion[t.Region]
	if rs == nil {
		rs = &series{}
		c.byRegion[t.Region] = rs
	}
	rs.add(at, resp)
	if c.OnFinish != nil {
		c.OnFinish(t.Region, resp)
	}
}

// Traces returns all completed traces in completion order.
func (c *Collector) Traces() []*Trace { return c.traces }

// Open returns the number of traces started but not finished.
func (c *Collector) Open() int { return len(c.openList) }

// Count returns the number of completed traces, optionally filtered by
// region ("" matches all).
func (c *Collector) Count(region string) int {
	if region == "" {
		return len(c.traces)
	}
	if rs := c.byRegion[region]; rs != nil {
		return len(rs.resp)
	}
	return 0
}

// ResponseAfter returns response times of traces that finished at or after
// cut, for region ("" matches all) — used to discard warm-up. Traces finish
// in simulation-time order, so this is one binary search over the
// finish-ordered store; the result is a read-only view into that store and
// must not be modified by the caller.
func (c *Collector) ResponseAfter(region string, cut sim.Time) []time.Duration {
	if region == "" {
		return c.all.after(cut)
	}
	return c.byRegion[region].after(cut)
}

// ServiceExecTimes returns every recorded execution time for service,
// across all traces, in recording order. Requires KeepSpans.
func (c *Collector) ServiceExecTimes(service string) []time.Duration {
	if i, ok := c.tallyOf[service]; ok {
		return c.tallies[i].exec
	}
	return nil
}

// MeanCallTimes returns the average number of invocations of service per
// completed request in region. Requires KeepSpans.
func (c *Collector) MeanCallTimes(service, region string) float64 {
	n, reqs := 0, 0
	for _, t := range c.traces {
		if region != "" && t.Region != region {
			continue
		}
		reqs++
		n += t.CallCount(service)
	}
	if reqs == 0 {
		return 0
	}
	return float64(n) / float64(reqs)
}
