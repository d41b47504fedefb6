package trace

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// msf builds a sim.Time at the given (possibly fractional) millisecond
// offset; the int-valued ms helper lives in trace_test.go.
func msf(x float64) sim.Time { return sim.Time(x * float64(time.Millisecond)) }

// chainTrace models one executor request: API span first (submitted at
// request start), then spans dispatched off earlier completions with a
// 0.1ms network gap, finishing at the last span's end. Spans are listed in
// completion order, as the collector records them.
func chainTrace() *Trace {
	return &Trace{
		ID: 1, Region: "A", Begin: 0, Finish: msf(15),
		Spans: []Span{
			{Service: "api", Host: "serverB", Submit: 0, Start: 0, End: msf(10), FreqGHz: 2.4},
			{Service: "basic", Host: "serverC1", Submit: msf(10.1), Start: msf(11), End: msf(15), FreqGHz: 2.4},
		},
	}
}

func TestInferParentsChain(t *testing.T) {
	tr := chainTrace()
	parents := InferParents(tr)
	if parents[0] != -1 || parents[1] != 0 {
		t.Fatalf("parents = %v, want [-1 0]", parents)
	}
}

func TestInferParentsFanOutAndTriggerChain(t *testing.T) {
	// API ends at 10; two calls fan out at 10.1; the slower one's
	// completion (20) triggers a dependent call at 20.1. Completion order:
	// api, fast, slow, dependent.
	tr := &Trace{
		ID: 2, Region: "A", Begin: 0, Finish: msf(30),
		Spans: []Span{
			{Service: "api", Submit: 0, Start: 0, End: msf(10)},
			{Service: "fast", Submit: msf(10.1), Start: msf(10.1), End: msf(14)},
			{Service: "slow", Submit: msf(10.1), Start: msf(10.1), End: msf(20)},
			{Service: "dep", Submit: msf(20.1), Start: msf(20.1), End: msf(30)},
		},
	}
	parents := InferParents(tr)
	want := []int{-1, 0, 0, 2}
	for i := range want {
		if parents[i] != want[i] {
			t.Fatalf("parents = %v, want %v", parents, want)
		}
	}
	path := CriticalPath(tr)
	var svcs []string
	for _, st := range path {
		svcs = append(svcs, tr.Spans[st.Span].Service)
	}
	if len(svcs) != 3 || svcs[0] != "api" || svcs[1] != "slow" || svcs[2] != "dep" {
		t.Fatalf("critical path services = %v, want [api slow dep]", svcs)
	}
}

func TestInferParentsNeverSelfOrCycle(t *testing.T) {
	// Same-instant completions and a zero-latency span submitted exactly
	// at its own end: the (End, index) tie-break must keep the relation
	// acyclic and never pick the span itself.
	tr := &Trace{
		ID: 3, Region: "A", Begin: 0, Finish: msf(10),
		Spans: []Span{
			{Service: "a", Submit: 0, Start: 0, End: msf(10)},
			{Service: "b", Submit: msf(10), Start: msf(10), End: msf(10)},
			{Service: "c", Submit: msf(10), Start: msf(10), End: msf(10)},
		},
	}
	parents := InferParents(tr)
	for i, p := range parents {
		if p == i {
			t.Fatalf("span %d is its own parent", i)
		}
	}
	if parents[1] != 0 || parents[2] != 1 {
		t.Fatalf("parents = %v, want [-1 0 1]", parents)
	}
	if got := len(CriticalPath(tr)); got != 3 {
		t.Fatalf("path length = %d, want 3", got)
	}
}

// TestBlameTelescopes pins the accumulator's core identity: for every
// region, Response == Dispatch + Σ services (Queue + Exec + FreqInflation).
func TestBlameTelescopes(t *testing.T) {
	acc := NewBlameAccumulator(nil)
	acc.Observe(chainTrace())
	acc.Observe(&Trace{
		ID: 4, Region: "A", Begin: msf(1), Finish: msf(21),
		Spans: []Span{
			{Service: "api", Submit: msf(1), Start: msf(1.5), End: msf(12)},
			{Service: "basic", Submit: msf(12.1), Start: msf(12.1), End: msf(20)},
		},
	})
	rb := acc.Region("A")
	if rb == nil || rb.Requests != 2 {
		t.Fatalf("region A requests = %+v", rb)
	}
	var svcSum time.Duration
	for _, svc := range rb.Services() {
		svcSum += rb.Service(svc).Total()
	}
	if rb.Dispatch+svcSum != rb.Response {
		t.Fatalf("dispatch %v + services %v != response %v", rb.Dispatch, svcSum, rb.Response)
	}
	// The second trace finishes 1ms after its last span ends: wrap-up
	// counts as dispatch, alongside the two 0.1ms network gaps and the
	// 0.5ms API queueing being blamed on "api".
	if api := rb.Service("api"); api.Queue != msf(0.5).Sub(0) {
		t.Fatalf("api queue = %v, want 0.5ms", api.Queue)
	}
	if rb.Service("missing") != nil {
		t.Fatal("unknown service must report nil blame")
	}
}

func TestBlameFrequencyInflation(t *testing.T) {
	slowdown := func(service string, ghz float64) float64 {
		if ghz < 2.0 {
			return 2.0 // half speed below 2GHz
		}
		return 1.0
	}
	acc := NewBlameAccumulator(slowdown)
	acc.Observe(&Trace{
		ID: 5, Region: "B", Begin: 0, Finish: msf(10),
		Spans: []Span{
			{Service: "seat", Submit: 0, Start: 0, End: msf(10), FreqGHz: 1.2},
		},
	})
	b := acc.Region("B").Service("seat")
	if b.Exec != msf(5).Sub(0) || b.FreqInflation != msf(5).Sub(0) {
		t.Fatalf("exec/inflation = %v/%v, want 5ms/5ms", b.Exec, b.FreqInflation)
	}
	if b.Total() != msf(10).Sub(0) {
		t.Fatalf("total = %v, want 10ms", b.Total())
	}
	// Full frequency: no inflation.
	acc2 := NewBlameAccumulator(slowdown)
	tr := chainTrace()
	acc2.Observe(tr)
	if got := acc2.Region("A").Service("api").FreqInflation; got != 0 {
		t.Fatalf("inflation at full frequency = %v, want 0", got)
	}
	if acc2.ServiceTotal("api") == 0 || acc2.ServiceTotal("nope") != 0 {
		t.Fatal("ServiceTotal must sum observed services and zero unknown ones")
	}
}

func TestBlamePerRequestHistogram(t *testing.T) {
	acc := NewBlameAccumulator(nil)
	for i := 0; i < 10; i++ {
		acc.Observe(chainTrace())
	}
	b := acc.Region("A").Service("basic")
	if b.PerRequest.Count() != 10 {
		t.Fatalf("per-request histogram count = %d, want 10", b.PerRequest.Count())
	}
	// Per-request blame for "basic" is 0.9ms queue + 4ms exec.
	want := msf(4.9).Sub(0)
	if got := b.PerRequest.Max(); got != want {
		t.Fatalf("per-request max = %v, want %v", got, want)
	}
}

func TestObserveSpanlessTrace(t *testing.T) {
	acc := NewBlameAccumulator(nil)
	acc.Observe(&Trace{ID: 6, Region: "A", Begin: 0, Finish: msf(3)})
	rb := acc.Region("A")
	if rb.Dispatch != rb.Response || rb.Requests != 1 {
		t.Fatalf("spanless trace: dispatch %v response %v", rb.Dispatch, rb.Response)
	}
}

// TestUnsortedSpansHandled feeds spans out of completion order (hand-built
// traces); endOrder must restore (End, index) order before inference.
func TestUnsortedSpansHandled(t *testing.T) {
	tr := chainTrace()
	tr.Spans[0], tr.Spans[1] = tr.Spans[1], tr.Spans[0]
	parents := InferParents(tr)
	if parents[0] != 1 || parents[1] != -1 {
		t.Fatalf("parents = %v, want [1 -1]", parents)
	}
}

// TestObserveZeroAllocs pins the BenchmarkCritPath gate: once the walk
// scratch and per-service entries exist, folding a trace in is
// allocation-free.
func TestObserveZeroAllocs(t *testing.T) {
	acc := NewBlameAccumulator(nil)
	tr := chainTrace()
	acc.Observe(tr) // create entries and scratch
	allocs := testing.AllocsPerRun(1000, func() { acc.Observe(tr) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %.3f objects/op, want 0", allocs)
	}
}
