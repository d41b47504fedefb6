package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"servicefridge/internal/metrics"
	"servicefridge/internal/power"
)

func withParallelism(t *testing.T, n int) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(prev) })
}

func TestParMapPreservesOrder(t *testing.T) {
	withParallelism(t, 8)
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	out := parMap(in, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParMapBoundsConcurrency(t *testing.T) {
	withParallelism(t, 3)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	parMap(make([]struct{}, 50), func(struct{}) struct{} {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		for i := 0; i < 1000; i++ { // widen the overlap window
			_ = i
		}
		inFlight.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d workers in flight, parallelism is 3", p)
	}
}

func TestRunAllEmitsInOrder(t *testing.T) {
	withParallelism(t, 4)
	exps := []Experiment{
		{"e1", "one", func(uint64) []*metrics.Table { return Table2(1) }},
		{"e2", "two", func(uint64) []*metrics.Table { return Figure7(1) }},
		{"e3", "three", func(uint64) []*metrics.Table { return Table4(1) }},
	}
	var got []string
	RunAll(exps, 1, func(r RunResult) {
		if len(r.Tables) == 0 {
			t.Fatalf("%s produced no tables", r.Experiment.ID)
		}
		got = append(got, r.Experiment.ID)
	})
	want := []string{"e1", "e2", "e3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emit order %v, want %v", got, want)
		}
	}
}

// TestRunAllCapturesPanicsAsErrors: a panicking experiment must surface as
// RunResult.Err — in input order, without killing the worker pool or the
// experiments queued behind it.
func TestRunAllCapturesPanicsAsErrors(t *testing.T) {
	withParallelism(t, 2)
	exps := []Experiment{
		{"ok1", "fine", func(uint64) []*metrics.Table { return Table2(1) }},
		{"boom", "explodes", func(uint64) []*metrics.Table { panic("kaboom") }},
		{"ok2", "also fine", func(uint64) []*metrics.Table { return Table2(1) }},
	}
	var ids []string
	var errs []error
	RunAll(exps, 1, func(r RunResult) {
		ids = append(ids, r.Experiment.ID)
		errs = append(errs, r.Err)
	})
	if want := []string{"ok1", "boom", "ok2"}; !slicesEqual(ids, want) {
		t.Fatalf("emit order %v, want %v", ids, want)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy experiments carried errors: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("panicking experiment produced no error")
	}
	if msg := errs[1].Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, "kaboom") {
		t.Fatalf("error %q should name the experiment and the panic value", msg)
	}
}

// TestRunAllCapturesCellPanics: a parMap cell panics on a worker goroutine,
// not on runOne's, so parMap must carry the panic back for RunAll to report
// it as RunResult.Err instead of the process dying at width >= 2.
func TestRunAllCapturesCellPanics(t *testing.T) {
	withParallelism(t, 2)
	exps := []Experiment{{"cells", "panicking cell", func(uint64) []*metrics.Table {
		parMap([]int{0, 1, 2, 3}, func(i int) int {
			if i == 2 {
				panic("cell kaboom")
			}
			return i
		})
		return nil
	}}}
	var got RunResult
	RunAll(exps, 1, func(r RunResult) { got = r })
	if got.Err == nil || !strings.Contains(got.Err.Error(), "cell kaboom") {
		t.Fatalf("Err = %v, want the cell's panic", got.Err)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCalibratedSingleflight hammers the memoized calibration from many
// goroutines: every caller must observe the same value (run under -race
// this also proves the cache is synchronized).
func TestCalibratedSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in -short mode")
	}
	const seed = 123
	var wg sync.WaitGroup
	results := make([]power.Watts, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = calibrated(seed)
		}(i)
	}
	wg.Wait()
	for i, w := range results {
		if w != results[0] {
			t.Fatalf("caller %d saw %v, caller 0 saw %v", i, w, results[0])
		}
		if w <= 225 {
			t.Fatalf("calibrated max required %v should exceed idle floor", w)
		}
	}
}

// TestParallelMatchesSequential is the determinism guarantee of the
// parallel executor: for the same seed, the rendered tables of a parallel
// run are byte-identical to a sequential one. Uses a mixed subset —
// profile replay (fig4), multi-cell isolation (fig6) and a
// calibration-sharing controller figure (fig12) — to cover all fan-out
// paths without regenerating the whole registry.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in -short mode")
	}
	render := func() string {
		var b strings.Builder
		var exps []Experiment
		for _, id := range []string{"fig4", "fig6", "fig12"} {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			exps = append(exps, e)
		}
		RunAll(exps, 1, func(r RunResult) {
			for _, tb := range r.Tables {
				b.WriteString(tb.String())
			}
		})
		return b.String()
	}
	withParallelism(t, 1)
	seq := render()
	SetParallelism(8)
	par := render()
	if seq != par {
		t.Fatalf("parallel output diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
