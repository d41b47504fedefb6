package trace

import (
	"sort"
	"time"

	"servicefridge/internal/metrics"
)

// Critical-path analytics: the offline pass the paper's methodology implies
// but never spells out. The collector records spans flat (service, host,
// submit/start/end, host frequency); this file reconstructs each request's
// dispatch tree from those times alone, walks the chain that actually gated
// completion, and decomposes the end-to-end response time into per-service
// blame — queueing vs execution vs DVFS-induced inflation — so experiments
// can ask "which service made this request slow?" and cross-validate the
// MCF ranking against a measured ground truth.

// SlowdownFunc maps a service's host frequency (GHz) to its execution
// slowdown factor relative to full frequency (≥ 1). engine.SlowdownFromSpec
// derives one from an application spec; nil disables the frequency split
// (all execution time counts as Exec).
type SlowdownFunc func(service string, ghz float64) float64

// PathStep is one hop of a request's critical path.
type PathStep struct {
	// Span indexes the trace's Spans slice.
	Span int
	// Gap is the dispatch delay between the trigger (the parent span's
	// completion, or the request start for the root) and this span's
	// submission — network and fan-in time attributable to no service.
	Gap time.Duration
}

// InferParents reconstructs the dispatch tree of a completed trace from
// span times alone: span i's parent is the span whose completion triggered
// its dispatch — the latest-ending span with End ≤ i.Submit, ties broken
// toward the earlier index so the relation is strictly decreasing in
// (End, index) and therefore acyclic. -1 marks spans dispatched directly
// from the request start. This matches the executor's trigger semantics:
// stage N is dispatched by the last completion of stage N-1, and a bounded
// -concurrency call chain dispatches each invocation from a predecessor's
// completion, NetDelay later.
func InferParents(t *Trace) []int {
	parents := make([]int, len(t.Spans))
	inferParents(t.Spans, endOrder(nil, t.Spans), parents)
	return parents
}

// endOrder fills order with span indices sorted by (End, index). Spans are
// recorded at completion, so the input is normally already End-sorted and
// the insertion sort is a linear verification pass; an out-of-order caller
// (hand-built traces) degrades gracefully instead of misattributing.
func endOrder(order []int, spans []Span) []int {
	order = order[:0]
	for i := range spans {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && spans[order[j]].End < spans[order[j-1]].End; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// inferParents resolves each span's trigger with one binary search over
// the (End, index)-ordered spans. Scratch-driven so the accumulator's
// steady state is allocation-free.
func inferParents(spans []Span, order, parents []int) {
	for i := range spans {
		sub := spans[i].Submit
		lo, hi := 0, len(order)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if spans[order[mid]].End > sub {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		// order[lo-1] is the latest completion at or before the submit.
		// Skip self and anything not strictly below i in (End, index):
		// the parent relation must be well-founded for the path walk.
		p := lo - 1
		for p >= 0 {
			c := order[p]
			if c != i && (spans[c].End < spans[i].End || (spans[c].End == spans[i].End && c < i)) {
				break
			}
			p--
		}
		if p < 0 {
			parents[i] = -1
		} else {
			parents[i] = order[p]
		}
	}
}

// CriticalPath returns the dependency chain that gated the request's
// completion: starting from the last span to finish, each step's trigger,
// back to the request start. Steps are in execution order (root first).
// The terminal gap between the last span's completion and the trace
// finish is not a step; blame attribution accounts it as dispatch time.
func CriticalPath(t *Trace) []PathStep {
	if len(t.Spans) == 0 {
		return nil
	}
	order := endOrder(nil, t.Spans)
	parents := make([]int, len(t.Spans))
	inferParents(t.Spans, order, parents)
	return appendPath(nil, t, parents, order[len(order)-1])
}

// appendPath walks the parent chain from last back to the request start,
// appending steps to the (reused) buffer, then reverses into execution
// order. Gaps clamp at zero so the decomposition telescopes exactly.
func appendPath(steps []PathStep, t *Trace, parents []int, last int) []PathStep {
	for cur := last; cur >= 0; cur = parents[cur] {
		trigger := t.Begin
		if p := parents[cur]; p >= 0 {
			trigger = t.Spans[p].End
		}
		gap := t.Spans[cur].Submit.Sub(trigger)
		if gap < 0 {
			gap = 0
		}
		steps = append(steps, PathStep{Span: cur, Gap: gap})
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

// Blame is the response-time share attributed to one service by the
// critical-path decomposition, accumulated over many requests.
type Blame struct {
	// Spans counts critical-path spans attributed to the service.
	Spans int
	// Queue is time critical-path spans spent waiting for a core.
	Queue time.Duration
	// Exec is core occupancy at the frequency-neutral baseline: the
	// execution time the span would have cost at full frequency.
	Exec time.Duration
	// FreqInflation is the extra occupancy caused by running below full
	// frequency, per the service's slowdown model and the host frequency
	// recorded at span start. Zero when no SlowdownFunc is configured.
	FreqInflation time.Duration
	// PerRequest is the distribution of this service's per-request blame
	// totals (queue + execution per request), streamed into a bounded
	// histogram so accumulation over millions of requests stays O(buckets).
	// Its count is the number of requests whose critical path touched the
	// service.
	PerRequest *metrics.StreamingHistogram
}

// Total returns the service's full critical-path blame.
func (b *Blame) Total() time.Duration { return b.Queue + b.Exec + b.FreqInflation }

// RegionBlame is the per-region blame profile. For every observed region,
// Response == Dispatch + Σ over services of Blame.Total() — the
// decomposition telescopes exactly, by construction.
type RegionBlame struct {
	// Requests counts observed requests.
	Requests int
	// Response is the summed end-to-end response time of those requests.
	Response time.Duration
	// Dispatch is critical-path time spent in no service: network delays
	// before submissions, fan-in waits, and request wrap-up.
	Dispatch time.Duration

	byService map[string]*Blame
}

// Service returns the blame entry for a service, or nil if the service
// never appeared on a critical path.
func (r *RegionBlame) Service(name string) *Blame { return r.byService[name] }

// Services returns the blamed service names, sorted.
func (r *RegionBlame) Services() []string {
	out := make([]string, 0, len(r.byService))
	for s := range r.byService {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// BlameAccumulator folds completed traces into per-region, per-service
// blame profiles. Profiles are a pure function of the observed trace set:
// every accumulated quantity is order-independent, so a deterministic run
// yields a byte-identical rendered profile at any executor parallelism.
// Steady-state Observe is allocation-free: the walk scratch is reused and
// per-service entries are created once.
type BlameAccumulator struct {
	slowdown SlowdownFunc
	regions  map[string]*RegionBlame

	// Reused walk scratch.
	order   []int
	parents []int
	steps   []PathStep
	reqTot  map[string]time.Duration
}

// NewBlameAccumulator returns an empty accumulator. slowdown may be nil,
// disabling the frequency-inflation split.
func NewBlameAccumulator(slowdown SlowdownFunc) *BlameAccumulator {
	return &BlameAccumulator{
		slowdown: slowdown,
		regions:  make(map[string]*RegionBlame),
		reqTot:   make(map[string]time.Duration),
	}
}

// Regions returns the observed region names, sorted.
func (a *BlameAccumulator) Regions() []string {
	out := make([]string, 0, len(a.regions))
	for r := range a.regions {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Region returns the profile for a region, or nil if unobserved.
func (a *BlameAccumulator) Region(name string) *RegionBlame { return a.regions[name] }

// ServiceTotal returns a service's critical-path blame summed over every
// region — the measured quantity the experiments rank-correlate against
// the MCF model.
func (a *BlameAccumulator) ServiceTotal(service string) time.Duration {
	var sum time.Duration
	for _, rb := range a.regions {
		if b := rb.byService[service]; b != nil {
			sum += b.Total()
		}
	}
	return sum
}

// Observe attributes one completed trace's response time. Traces must
// carry spans (Collector.KeepSpans); a spanless trace is counted with its
// whole response as dispatch time.
func (a *BlameAccumulator) Observe(t *Trace) {
	rb := a.regions[t.Region]
	if rb == nil {
		rb = &RegionBlame{byService: make(map[string]*Blame)}
		a.regions[t.Region] = rb
	}
	rb.Requests++
	rb.Response += t.Response()
	if len(t.Spans) == 0 {
		rb.Dispatch += t.Response()
		return
	}

	a.order = endOrder(a.order, t.Spans)
	if cap(a.parents) < len(t.Spans) {
		a.parents = make([]int, len(t.Spans))
	}
	a.parents = a.parents[:len(t.Spans)]
	inferParents(t.Spans, a.order, a.parents)
	last := a.order[len(a.order)-1]
	a.steps = appendPath(a.steps[:0], t, a.parents, last)

	clear(a.reqTot)
	var dispatch time.Duration
	for _, st := range a.steps {
		s := &t.Spans[st.Span]
		dispatch += st.Gap
		queue := s.Queued()
		if queue < 0 {
			queue = 0
		}
		exec := s.Exec()
		base, infl := exec, time.Duration(0)
		if a.slowdown != nil && s.FreqGHz > 0 {
			if f := a.slowdown(s.Service, s.FreqGHz); f > 1 {
				base = time.Duration(float64(exec) / f)
				infl = exec - base
			}
		}
		b := rb.byService[s.Service]
		if b == nil {
			b = &Blame{PerRequest: new(metrics.StreamingHistogram)}
			rb.byService[s.Service] = b
		}
		b.Spans++
		b.Queue += queue
		b.Exec += base
		b.FreqInflation += infl
		a.reqTot[s.Service] += queue + exec
	}
	// Wrap-up after the last completion belongs to no service either.
	if tail := t.Finish.Sub(t.Spans[last].End); tail > 0 {
		dispatch += tail
	}
	rb.Dispatch += dispatch

	for svc, d := range a.reqTot {
		rb.byService[svc].PerRequest.Add(d)
	}
}
