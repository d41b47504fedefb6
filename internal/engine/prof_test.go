package engine

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/prof"
)

// TestPhaseProfilingIsPassive is the profiler's hard invariant: a run
// with phase profiling enabled produces byte-identical observable
// output — controller event stream, hash-chained ledger, latency
// summaries — to the same run with profiling off. The profiler reads
// the monotonic wall clock and its own counters only; if it ever
// touched sim state or the RNG, the ledger digests would diverge and
// this test would name the first divergent tick.
func TestPhaseProfilingIsPassive(t *testing.T) {
	run := func(enabled bool) (events, ledger, summary string, phaseSecs float64) {
		prof.Reset()
		prof.SetEnabled(enabled)
		defer func() {
			prof.SetEnabled(false)
			prof.Reset()
		}()
		cfg := Config{
			Seed:           7,
			Scheme:         ServiceFridge,
			BudgetFraction: 0.8,
			PoolWorkers:    map[string]int{"A": 10, "B": 10},
			Warmup:         2 * time.Second,
			Duration:       6 * time.Second,
			Events:         obs.NewRecorder(0),
			Ledger:         obs.NewLedger(),
			ProfLabel:      "passivity",
		}
		res := mustRun(cfg)
		var ev, led bytes.Buffer
		if err := cfg.Events.WriteJSONL(&ev); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Ledger.WriteJSONL(&led); err != nil {
			t.Fatal(err)
		}
		for _, pt := range prof.Totals() {
			phaseSecs += pt.Seconds
		}
		return ev.String(), led.String(), fmt.Sprintf("%+v", res.Summary("")), phaseSecs
	}

	evOff, ledOff, sumOff, secsOff := run(false)
	evOn, ledOn, sumOn, secsOn := run(true)

	if secsOff != 0 {
		t.Fatalf("disabled run recorded %.6fs of phase time", secsOff)
	}
	if secsOn <= 0 {
		t.Fatal("enabled run recorded no phase time — the profiler never engaged")
	}
	if sumOn != sumOff {
		t.Errorf("latency summary diverged with profiling on:\n  off: %s\n  on:  %s", sumOff, sumOn)
	}
	if evOn != evOff {
		t.Errorf("event stream diverged with profiling on (%d vs %d bytes)", len(evOff), len(evOn))
	}
	if ledOn != ledOff {
		t.Errorf("run ledger diverged with profiling on (%d vs %d bytes)", len(ledOff), len(ledOn))
	}
	if ledOff == "" || evOff == "" {
		t.Fatal("baseline run produced empty observability output; the comparison is vacuous")
	}
}
