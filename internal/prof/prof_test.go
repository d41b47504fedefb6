package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// withRegistry isolates a test from the package-global registry and
// enabled flag.
func withRegistry(t *testing.T, on bool) {
	t.Helper()
	prev := enabled.Load()
	SetEnabled(on)
	Reset()
	t.Cleanup(func() {
		SetEnabled(prev)
		Reset()
	})
}

func TestPhaseString(t *testing.T) {
	if Dispatch.String() != "dispatch" || MCF.String() != "mcf" {
		t.Fatalf("phase names: %s %s", Dispatch, MCF)
	}
	if Phase(200).String() != "invalid" {
		t.Fatalf("out-of-range phase = %s", Phase(200))
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if ph.String() == "" || ph.String() == "invalid" {
			t.Fatalf("phase %d has no name", ph)
		}
	}
}

// TestSelfTimePartition checks the core invariant: phase seconds
// partition the top-level scope time exactly — entering an inner phase
// pauses the outer one, and the sum of all phases equals the wall total.
func TestSelfTimePartition(t *testing.T) {
	p := NewDetached("test")
	p.Enter(Dispatch)
	p.Enter(Tick)
	p.Enter(MCF)
	spin()
	p.Exit()
	p.Enter(Zones)
	p.Exit()
	p.Exit()
	p.Exit()
	p.Enter(Snapshot)
	spin()
	p.Exit()

	var sum float64
	counts := map[Phase]int64{}
	for _, tot := range p.Totals() {
		sum += tot.Seconds
		counts[tot.Phase] = tot.Count
	}
	wall := p.WallSeconds()
	if wall <= 0 {
		t.Fatal("no wall time recorded")
	}
	if math.Abs(sum-wall) > 1e-6 {
		t.Fatalf("phase sum %.9fs != wall %.9fs", sum, wall)
	}
	want := map[Phase]int64{Dispatch: 1, Tick: 1, MCF: 1, Zones: 1, Snapshot: 1}
	for ph, n := range want {
		if counts[ph] != n {
			t.Fatalf("count[%s] = %d, want %d", ph, counts[ph], n)
		}
	}
}

// spin burns a little CPU so scopes have nonzero width even on coarse
// clocks.
func spin() {
	x := 0.0
	for i := 0; i < 2000; i++ {
		x += math.Sqrt(float64(i))
	}
	if x < 0 {
		panic("unreachable")
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Enter(Dispatch)
	p.Exit()
	if p.Totals() != nil || p.WallSeconds() != 0 || p.Label() != "" {
		t.Fatal("nil profiler should report nothing")
	}
	Register(p)   // no-op
	Unregister(p) // no-op
}

func TestDepthOverflowIsHarmless(t *testing.T) {
	p := NewDetached("deep")
	for i := 0; i < maxDepth+8; i++ {
		p.Enter(Tick)
	}
	for i := 0; i < maxDepth+8; i++ {
		p.Exit()
	}
	p.Exit() // extra exits are ignored
	var count int64
	for _, tot := range p.Totals() {
		if tot.Phase == Tick {
			count = tot.Count
		}
	}
	if count != maxDepth {
		t.Fatalf("tracked %d scopes, want %d (overflow entries uncounted)", count, maxDepth)
	}
}

func TestAllocAttribution(t *testing.T) {
	p := NewDetached("alloc")
	var sink [][]byte
	p.Enter(Tick) // alloc-tracked phase
	for i := 0; i < 8; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
	p.Exit()
	if len(sink) != 8 {
		t.Fatal("allocation sink lost")
	}
	var got int64
	for _, tot := range p.Totals() {
		if tot.Phase == Tick {
			got = tot.AllocBytes
		}
	}
	if got < 1<<20 {
		t.Fatalf("Tick alloc bytes = %d, want >= 1MiB", got)
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	withRegistry(t, false)
	if p := New("fig15"); p != nil {
		t.Fatal("New should return nil while profiling is disabled")
	}
}

func TestRegistryAggregation(t *testing.T) {
	withRegistry(t, true)
	a := New("fig15")
	b := New("fig15")
	c := New("fig14")
	if a == nil || b == nil || c == nil {
		t.Fatal("New returned nil while enabled")
	}
	for _, p := range []*Profiler{a, b, c} {
		p.Enter(Dispatch)
		spin()
		p.Exit()
	}
	agg := Aggregate()
	if len(agg) != 2 {
		t.Fatalf("aggregated %d labels, want 2", len(agg))
	}
	if agg[0].Label != "fig14" || agg[1].Label != "fig15" {
		t.Fatalf("labels not sorted: %v %v", agg[0].Label, agg[1].Label)
	}
	if agg[1].Runs != 2 {
		t.Fatalf("fig15 runs = %d, want 2", agg[1].Runs)
	}
	if agg[1].WallSeconds <= 0 || len(agg[1].Phases) == 0 {
		t.Fatalf("fig15 aggregate empty: %+v", agg[1])
	}
	tot := Totals()
	if len(tot) == 0 || tot[0].Count != 3 {
		t.Fatalf("process totals = %+v, want 3 dispatch scopes", tot)
	}

	Unregister(b)
	agg = Aggregate()
	if agg[1].Runs != 1 {
		t.Fatalf("after Unregister, fig15 runs = %d, want 1", agg[1].Runs)
	}
}

func TestEmptyLabelDefaultsToRun(t *testing.T) {
	withRegistry(t, true)
	p := New("")
	if p.Label() != "run" {
		t.Fatalf("label = %q, want run", p.Label())
	}
}

func TestWriteJSONAndTable(t *testing.T) {
	withRegistry(t, true)
	p := New("fig15")
	p.Enter(Dispatch)
	p.Enter(MCF)
	spin()
	p.Exit()
	p.Exit()

	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GoMaxProcs int `json:"gomaxprocs"`
		Labels     []struct {
			Label       string  `json:"label"`
			WallSeconds float64 `json:"wall_seconds"`
			Phases      []struct {
				Phase   string  `json:"phase"`
				Seconds float64 `json:"seconds"`
				Count   int64   `json:"count"`
			} `json:"phases"`
		} `json:"labels"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(doc.Labels) != 2 || doc.Labels[0].Label != "fig15" || doc.Labels[1].Label != "total" {
		t.Fatalf("labels: %+v", doc.Labels)
	}
	if doc.Labels[0].WallSeconds <= 0 {
		t.Fatal("wall_seconds missing")
	}

	var tbl bytes.Buffer
	WriteTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"phase profile fig15", "dispatch", "mcf", "share"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}

	var one bytes.Buffer
	if err := WriteProfilerJSON(&one, p); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(one.Bytes()) || !strings.Contains(one.String(), `"label":"fig15"`) {
		t.Fatalf("profiler JSON: %s", one.String())
	}
}
