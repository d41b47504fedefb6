package engine

import (
	"bytes"
	"testing"

	"servicefridge/internal/obs"
)

func instrumentedRun(t *testing.T, seed uint64) (*Result, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(0)
	res := mustRun(quick(Config{Seed: seed, Scheme: ServiceFridge, BudgetFraction: 0.8, Events: rec}))
	return res, rec
}

// TestEventStreamDeterministic runs the same instrumented configuration
// twice and requires byte-identical JSONL — the per-run half of the
// cross-parallelism guarantee the CI determinism gate enforces.
func TestEventStreamDeterministic(t *testing.T) {
	encode := func() []byte {
		_, rec := instrumentedRun(t, 3)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if len(a) == 0 {
		t.Fatal("instrumented run emitted no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event streams")
	}
}

// TestEventStreamShape checks the run emits the controller event kinds the
// timeline layer documents, keyed by non-decreasing sim time.
func TestEventStreamShape(t *testing.T) {
	res, rec := instrumentedRun(t, 3)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events on a short run", rec.Dropped())
	}
	counts := map[string]int{}
	last := rec.Events()[0]
	for _, r := range rec.Events() {
		counts[r.Ev.Kind()]++
		if r.At < last.At {
			t.Fatalf("event at %v recorded after %v", r.At, last.At)
		}
		last = r
	}
	for _, kind := range []string{"zone_reassign", "power_sample", "migration"} {
		if counts[kind] == 0 {
			t.Fatalf("no %s events recorded (counts %v)", kind, counts)
		}
	}
	if got := counts["migration"]; uint64(got) < res.Orch.Migrations() {
		t.Fatalf("%d migration events for %d orchestrator migrations",
			got, res.Orch.Migrations())
	}
}

// TestInstrumentationDoesNotPerturbRun compares an instrumented run with
// a plain one: recording is passive, so every observable outcome must
// match exactly.
func TestInstrumentationDoesNotPerturbRun(t *testing.T) {
	plain := mustRun(quick(Config{Seed: 3, Scheme: ServiceFridge, BudgetFraction: 0.8}))
	inst, _ := instrumentedRun(t, 3)
	if plain.Executor.Completed() != inst.Executor.Completed() {
		t.Fatalf("completed %d vs %d", plain.Executor.Completed(), inst.Executor.Completed())
	}
	if plain.Summary("A") != inst.Summary("A") || plain.Summary("B") != inst.Summary("B") {
		t.Fatal("latency summaries diverge under instrumentation")
	}
	if plain.Fridge.Promotions() != inst.Fridge.Promotions() ||
		plain.Fridge.Demotions() != inst.Fridge.Demotions() ||
		plain.Orch.Migrations() != inst.Orch.Migrations() {
		t.Fatal("controller decisions diverge under instrumentation")
	}
}
