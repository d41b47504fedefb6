package engine

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// TestForkDetourInvisible is the what-if safety property: pausing a run
// mid-flight, finishing it as the baseline, replaying to a fork point from
// the base snapshot, exploring a perturbed branch to completion, and
// replaying back to the paused position must leave the resumed run
// byte-identical to one that never forked.
func TestForkDetourInvisible(t *testing.T) {
	cold := mustRun(instrumentedConfig("ServiceFridge"))
	want := fingerprint(t, cold)

	live := mustBuild(instrumentedConfig("ServiceFridge"))
	base := live.Snapshot() // t=0 base for forks and the resume replay
	live.Engine.RunUntil(sim.Time(3 * time.Second))
	paused := live.Engine.Now()

	// The detour: finish the live run as the baseline branch, replay to
	// the fork at t=1.5s, perturb everything perturbable, run that
	// branch out.
	live.Finish()
	baseline := live.Summary("")
	if baseline.Count == 0 {
		t.Fatal("baseline branch completed no requests")
	}
	if err := live.ReplayTo(base, sim.Time(1500*time.Millisecond)); err != nil {
		t.Fatalf("ReplayTo fork: %v", err)
	}
	if live.Engine.Now() != sim.Time(1500*time.Millisecond) {
		t.Fatalf("fork left the clock at %v", live.Engine.Now())
	}
	live.SetBudgetFraction(0.75)
	live.ClampFreq(1.6)
	live.ScaleWorkers(1.5)
	live.Finish()
	perturbed := live.Summary("")
	if perturbed == baseline {
		t.Fatal("perturbed branch produced identical stats to baseline (perturbations had no effect)")
	}
	for _, s := range live.Cluster.Servers() {
		if s.Freq() > 1.6 {
			t.Fatalf("server %s at %v escaped the 1.6GHz clamp", s.Name(), s.Freq())
		}
	}

	// Replay back to the paused position and resume: the detour must be
	// invisible. (A bookmark Restore would not be — the perturbed branch
	// scribbled different values over shared append-only backing arrays.)
	if err := live.ReplayTo(base, paused); err != nil {
		t.Fatalf("ReplayTo: %v", err)
	}
	live.Finish()
	if got := fingerprint(t, live); got != want {
		t.Fatal("run with a what-if detour diverged from the cold run")
	}
}

// TestUnperturbedBookmarkResume pins the regression where a restore that
// rewound past a region's first response deleted the per-region series
// object from the collector's map, so a later bookmark restore fixed up
// an orphaned object while the live map pointed at a replacement. An
// unperturbed detour writes back the exact bytes it overwrites, so the
// bookmark pattern is sound — once series object identity survives.
func TestUnperturbedBookmarkResume(t *testing.T) {
	cold := mustRun(instrumentedConfig("ServiceFridge"))
	want := fingerprint(t, cold)

	live := mustBuild(instrumentedConfig("ServiceFridge"))
	base := live.Snapshot()
	live.Engine.RunUntil(sim.Time(3 * time.Second))
	cur := live.Snapshot()

	if err := live.ReplayTo(base, sim.Time(1500*time.Millisecond)); err != nil {
		t.Fatalf("ReplayTo: %v", err)
	}
	snap := live.Snapshot()
	live.Finish()
	live.Restore(snap)
	live.Finish()
	live.Restore(cur)
	live.Finish()
	if got := fingerprint(t, live); got != want {
		t.Fatal("unperturbed detour with a bookmark resume diverged from the cold run")
	}
}

// TestReplayToBounds: a replay may target any time from the base
// snapshot's to the run's end, inclusive; anything else is an error that
// leaves the run where it was.
func TestReplayToBounds(t *testing.T) {
	live := mustBuild(instrumentedConfig("Capping"))
	base := live.Snapshot()
	live.Engine.RunUntil(sim.Time(2 * time.Second))
	mid := live.Snapshot()
	if err := live.ReplayTo(mid, sim.Time(time.Second)); err == nil {
		t.Fatal("ReplayTo accepted a time before the base snapshot")
	}
	if err := live.ReplayTo(base, live.Total()+1); err == nil {
		t.Fatal("ReplayTo accepted a time past the run's end")
	}
	if now := live.Engine.Now(); now != sim.Time(2*time.Second) {
		t.Fatalf("rejected replays moved the clock to %v", now)
	}
	if err := live.ReplayTo(base, live.Total()); err != nil {
		t.Fatalf("ReplayTo rejected the run's end time: %v", err)
	}
	if err := live.ReplayTo(mid, mid.Now()); err != nil {
		t.Fatalf("ReplayTo rejected the base snapshot's own time: %v", err)
	}
	if now := live.Engine.Now(); now != sim.Time(2*time.Second) {
		t.Fatalf("replay to the base snapshot's time left the clock at %v", now)
	}
}

func TestTotalUsesPhasesWhenLonger(t *testing.T) {
	cfg := instrumentedConfig("Baseline")
	res := mustBuild(cfg)
	if got, want := res.Total(), sim.Time(6*time.Second); got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
}

func TestScaleWorkersFloor(t *testing.T) {
	cfg := instrumentedConfig("Baseline")
	cfg.Workers = 4
	res := mustBuild(cfg)
	res.ScaleWorkers(0.01) // rounds to 0 but the pool was non-empty
	if got := res.Gen.Workers(); got != 1 {
		t.Fatalf("ScaleWorkers(0.01) left %d workers, want floor of 1", got)
	}
	res.ScaleWorkers(2.5)
	if got := res.Gen.Workers(); got != 10 {
		t.Fatalf("ScaleWorkers(2.5) set %d workers, want 10", got)
	}
}
