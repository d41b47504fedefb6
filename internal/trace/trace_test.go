package trace

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func TestSpanTimings(t *testing.T) {
	s := Span{Service: "route", Host: "n1", Submit: ms(0), Start: ms(2), End: ms(7)}
	if s.Exec() != 5*time.Millisecond {
		t.Fatalf("exec = %v, want 5ms", s.Exec())
	}
	if s.Queued() != 2*time.Millisecond {
		t.Fatalf("queued = %v, want 2ms", s.Queued())
	}
	if s.Latency() != 7*time.Millisecond {
		t.Fatalf("latency = %v, want 7ms", s.Latency())
	}
}

func TestTraceLifecycle(t *testing.T) {
	c := NewCollector()
	tr := c.StartTrace("A", ms(0))
	if c.Open() != 1 {
		t.Fatalf("open = %d, want 1", c.Open())
	}
	c.AddSpan(tr, Span{Service: "route", Submit: ms(0), Start: ms(0), End: ms(3)})
	c.AddSpan(tr, Span{Service: "route", Submit: ms(3), Start: ms(3), End: ms(6)})
	c.AddSpan(tr, Span{Service: "price", Submit: ms(6), Start: ms(6), End: ms(10)})
	c.FinishTrace(tr, ms(12))
	if c.Open() != 0 {
		t.Fatalf("open = %d, want 0", c.Open())
	}
	if tr.Response() != 12*time.Millisecond {
		t.Fatalf("response = %v, want 12ms", tr.Response())
	}
	if tr.CallCount("route") != 2 || tr.CallCount("price") != 1 || tr.CallCount("x") != 0 {
		t.Fatal("call counts wrong")
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 3; i++ {
		tr := c.StartTrace("A", ms(i*100))
		c.AddSpan(tr, Span{Service: "seat", Submit: ms(i * 100), Start: ms(i * 100), End: ms(i*100 + 10)})
		c.FinishTrace(tr, ms(i*100+20))
	}
	tr := c.StartTrace("B", ms(500))
	c.AddSpan(tr, Span{Service: "seat", Submit: ms(500), Start: ms(500), End: ms(504)})
	c.FinishTrace(tr, ms(510))

	if c.Count("") != 4 || c.Count("A") != 3 || c.Count("B") != 1 {
		t.Fatal("counts wrong")
	}
	if got := c.ResponseAfter("A", 0); len(got) != 3 || got[0] != 20*time.Millisecond {
		t.Fatalf("A responses = %v", got)
	}
	if got := c.ServiceExecTimes("seat"); len(got) != 4 {
		t.Fatalf("seat execs = %v", got)
	}
	if got := c.MeanCallTimes("seat", "A"); got != 1 {
		t.Fatalf("mean call times = %v, want 1", got)
	}
}

func TestResponseAfterFiltersWarmup(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		tr := c.StartTrace("A", ms(i*10))
		c.FinishTrace(tr, ms(i*10+5))
	}
	got := c.ResponseAfter("A", ms(25))
	if len(got) != 3 {
		t.Fatalf("got %d post-warmup responses, want 3", len(got))
	}
}

// TestKeepSpansFalseDropsSpans pins the collector contract: with KeepSpans
// off a span leaves nothing behind — no span on the trace, no exec time in
// the tallies — while the OnSpan tap and the response stores still see
// every span and trace. With KeepSpans on, both are filled.
func TestKeepSpansFalseDropsSpans(t *testing.T) {
	for _, keep := range []bool{false, true} {
		c := NewCollector()
		c.KeepSpans = keep
		tapped := 0
		c.OnSpan = func(string, int, time.Duration) { tapped++ }
		tr := c.StartTrace("A", ms(0))
		c.AddSpan(tr, Span{Service: "s", Submit: ms(0), Start: ms(0), End: ms(1)})
		if got := len(tr.Spans); keep != (got == 1) {
			t.Fatalf("KeepSpans=%v: open trace holds %d spans", keep, got)
		}
		c.FinishTrace(tr, ms(2))
		want := 0
		if keep {
			want = 1
		}
		if got := len(c.Traces()[0].Spans); got != want {
			t.Fatalf("KeepSpans=%v: finished trace holds %d spans, want %d", keep, got, want)
		}
		if got := len(c.ServiceExecTimes("s")); got != want {
			t.Fatalf("KeepSpans=%v: %d exec times for s, want %d", keep, got, want)
		}
		if tapped != 1 || c.Count("A") != 1 {
			t.Fatalf("KeepSpans=%v: OnSpan fired %d times, %d traces counted; want 1 and 1", keep, tapped, c.Count("A"))
		}
	}
}

func TestFinishTwicePanics(t *testing.T) {
	c := NewCollector()
	tr := c.StartTrace("A", ms(0))
	c.FinishTrace(tr, ms(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.FinishTrace(tr, ms(2))
}

func TestAddSpanAfterFinishPanics(t *testing.T) {
	c := NewCollector()
	tr := c.StartTrace("A", ms(0))
	c.FinishTrace(tr, ms(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddSpan(tr, Span{Service: "s"})
}

// TestFinishOutOfOrderKeepsOpenSet finishes traces out of start order
// around a snapshot: the open set stays exact, and a restore brings back
// exactly the traces open at the snapshot, each finishable once.
func TestFinishOutOfOrderKeepsOpenSet(t *testing.T) {
	c := NewCollector()
	var trs []*Trace
	for i := 0; i < 5; i++ {
		trs = append(trs, c.StartTrace("A", ms(i)))
	}
	c.FinishTrace(trs[2], ms(10))
	c.FinishTrace(trs[0], ms(11))
	if c.Open() != 3 {
		t.Fatalf("open = %d, want 3", c.Open())
	}
	snap := c.Snapshot()
	c.FinishTrace(trs[4], ms(12))
	c.FinishTrace(trs[1], ms(13))
	c.FinishTrace(trs[3], ms(14))
	c.Restore(snap)
	if c.Open() != 3 || c.Count("") != 2 {
		t.Fatalf("restored open/done = %d/%d, want 3/2", c.Open(), c.Count(""))
	}
	for _, i := range []int{3, 1, 4} {
		c.FinishTrace(trs[i], ms(20))
	}
	if c.Open() != 0 || c.Count("") != 5 {
		t.Fatalf("open/done = %d/%d, want 0/5", c.Open(), c.Count(""))
	}
	if got := trs[1].Response(); got != 19*time.Millisecond {
		t.Fatalf("response = %v, want 19ms", got)
	}
}

// TestServiceIDFallsBackToName: a span whose ServiceID names another
// service, or no presized service, is tallied under its own name.
func TestServiceIDFallsBackToName(t *testing.T) {
	c := NewCollector()
	c.Presize([]string{"x", "y"}, 0)
	tr := c.StartTrace("A", 0)
	for _, s := range []struct {
		svc string
		id  int
	}{{"x", 0}, {"y", 1}, {"y", 0}, {"x", 7}, {"z", 0}, {"z", 2}, {"y", -1}} {
		c.AddSpan(tr, Span{Service: s.svc, ServiceID: s.id, End: ms(1)})
	}
	for svc, want := range map[string]int{"x": 2, "y": 3, "z": 2} {
		if got := len(c.ServiceExecTimes(svc)); got != want {
			t.Fatalf("%s: %d exec times, want %d", svc, got, want)
		}
	}
}
