package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/schemes"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
)

// fingerprint serializes everything a run exports — latency summaries,
// meter readings, trace counts, orchestrator actions, the event JSONL and
// the telemetry CSV — so two runs compare byte-for-byte.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	for _, region := range []string{"", "A", "B"} {
		s := res.Summary(region)
		fmt.Fprintf(&b, "region=%q count=%d mean=%d p90=%d p95=%d p99=%d max=%d\n",
			region, s.Count, s.Mean, s.P90, s.P95, s.P99, s.Max)
	}
	for _, cs := range res.Meter.ClusterSamples() {
		fmt.Fprintf(&b, "cs at=%d total=%v dyn=%v util=%v\n", cs.At, cs.Total, cs.Dynamic, cs.Util)
	}
	for _, smp := range res.Meter.Samples() {
		fmt.Fprintf(&b, "s at=%d f=%v u=%v p=%v\n", smp.At, smp.Freq, smp.Util, smp.Power)
	}
	fmt.Fprintf(&b, "traces=%d launched=%d completed=%d migrations=%d crashes=%d\n",
		len(res.Collector.Traces()), res.Executor.Launched(), res.Executor.Completed(),
		res.Orch.Migrations(), res.Orch.Crashes())
	svcs := make([]string, 0, len(res.FreqSeries))
	for svc := range res.FreqSeries {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		for _, p := range res.FreqSeries[svc] {
			fmt.Fprintf(&b, "fp %s at=%d f=%v\n", svc, p.At, p.Freq)
		}
	}
	if res.Config.Events != nil {
		if err := res.Config.Events.WriteJSONL(&b); err != nil {
			t.Fatalf("events jsonl: %v", err)
		}
	}
	if res.Config.Telemetry != nil {
		if err := res.Config.Telemetry.WriteCSV(&b); err != nil {
			t.Fatalf("telemetry csv: %v", err)
		}
	}
	if res.Config.Ledger != nil {
		if err := res.Config.Ledger.WriteJSONL(&b); err != nil {
			t.Fatalf("ledger jsonl: %v", err)
		}
	}
	return b.String()
}

// instrumentedConfig returns a config that exercises every stateful
// component: both worker pools, an open loop, events, telemetry and
// frequency tracking. Each call builds fresh instrumentation (telemetry
// binds once).
func instrumentedConfig(scheme string) Config {
	return Config{
		Seed:           7,
		Scheme:         SchemeName(scheme),
		BudgetFraction: 0.8,
		PoolWorkers:    map[string]int{"A": 6, "B": 6},
		OpenLoopRate:   map[string]float64{"A": 40},
		Warmup:         2 * time.Second,
		Duration:       4 * time.Second,
		TrackFreqOf:    []string{"seat"},
		Events:         obs.NewRecorder(4096),
		Telemetry:      telemetry.New(telemetry.Options{}),
		Ledger:         obs.NewLedger(),
	}
}

// TestSnapshotRestoreByteIdentical is the warm-start correctness property:
// for every registered scheme, snapshotting at a random simulation time is
// invisible (the interrupted run finishes byte-identical to a cold run),
// and restoring the snapshot and finishing again replays the exact same
// run a second time.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	names := schemes.Names()
	sort.Strings(names)
	rng := rand.New(rand.NewSource(42))
	for _, name := range names {
		name := name
		cut := time.Duration(rng.Int63n(int64(6 * time.Second)))
		t.Run(name, func(t *testing.T) {
			cold := mustRun(instrumentedConfig(name))
			want := fingerprint(t, cold)

			warm := mustBuild(instrumentedConfig(name))
			warm.Engine.RunUntil(sim.Time(cut))
			snap := warm.Snapshot()
			if snap.Now() != warm.Engine.Now() {
				t.Fatalf("snapshot time %v != engine now %v", snap.Now(), warm.Engine.Now())
			}
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatalf("run with snapshot at t=%v diverged from cold run", cut)
			}

			warm.Restore(snap)
			if warm.Engine.Now() != snap.Now() {
				t.Fatalf("restore left clock at %v, want %v", warm.Engine.Now(), snap.Now())
			}
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatalf("restored fork from t=%v diverged from cold run", cut)
			}

			// The snapshot must be reusable: fork a second time.
			warm.Restore(snap)
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatalf("second fork from t=%v diverged from cold run", cut)
			}
		})
	}
}

// TestSnapshotWarmBudgetSweep is the warm-start use case end to end: warm
// up once to the budget-independence barrier, then fork one cell per
// budget fraction and demand byte-identical results to cold runs at the
// same fractions.
func TestSnapshotWarmBudgetSweep(t *testing.T) {
	fractions := []float64{1.0, 0.9, 0.8, 0.75}
	base := func(frac float64) Config {
		cfg := instrumentedConfig("ServiceFridge")
		cfg.BudgetFraction = frac
		return cfg
	}

	donor := mustBuild(base(fractions[0]))
	barrier := donor.WarmBarrier()
	if barrier <= 0 || barrier >= sim.Time(time.Second) {
		t.Fatalf("warm barrier %v outside (0, ControlInterval)", barrier)
	}
	donor.Engine.RunUntil(barrier)
	snap := donor.Snapshot()

	for _, frac := range fractions {
		cold := mustRun(base(frac))
		want := fingerprint(t, cold)

		donor.Restore(snap)
		donor.SetBudgetFraction(frac)
		donor.Finish()
		if got := fingerprint(t, donor); got != want {
			t.Fatalf("warm cell at fraction %v diverged from cold run", frac)
		}
	}
}

// TestForkEachMatchesColdPrep pins the property that lets a caller tune a
// run between BuildE and Finish: a non-budget prep (the controller's
// LoadOverride) applied to each ForkEach fork gives the same run as the
// same prep applied to a separate cold BuildE → prep → Finish.
func TestForkEachMatchesColdPrep(t *testing.T) {
	overrides := []map[string]float64{nil, {"B": 30}, {"A": 30}}
	prep := func(res *Result, o map[string]float64) { res.Fridge.LoadOverride = o }
	got := ForkEach(mustBuild(instrumentedConfig("ServiceFridge")), overrides, prep,
		func(res *Result, _ map[string]float64) string { return fingerprint(t, res) })
	for i, o := range overrides {
		cold := mustBuild(instrumentedConfig("ServiceFridge"))
		prep(cold, o)
		cold.Finish()
		if want := fingerprint(t, cold); got[i] != want {
			t.Fatalf("fork with LoadOverride %v diverged from its cold run", o)
		}
	}
	if got[0] == got[1] {
		t.Fatal("LoadOverride left the run unchanged; the test cannot tell forks apart")
	}
}

// TestSetBudgetFraction pins the shared-budget plumbing: retargeting the
// result's budget must be visible to the scheme context and the config.
func TestSetBudgetFraction(t *testing.T) {
	res := mustBuild(Config{Scheme: Capping, BudgetFraction: 1.0})
	capBefore := res.Budget.Cap()
	res.SetBudgetFraction(0.5)
	if res.Budget.Fraction != 0.5 || res.Config.BudgetFraction != 0.5 {
		t.Fatalf("fraction = %v / cfg %v, want 0.5", res.Budget.Fraction, res.Config.BudgetFraction)
	}
	if got := res.Budget.Cap(); got >= capBefore {
		t.Fatalf("cap %v did not drop from %v", got, capBefore)
	}
	res.SetBudgetFraction(2.0)
	if res.Budget.Fraction != 1 {
		t.Fatalf("fraction %v not clamped to 1", res.Budget.Fraction)
	}
}
