package obs

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

func TestTimelineBucketsAndCarriesState(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }
	r := NewRecorder(0)
	// Tick 1: full zone snapshot, a DVFS step, a meter window.
	r.Emit(sec(1), PowerSample{Zone: "cluster", Watts: 300, Budget: 350})
	r.Emit(sec(1), ZoneReassign{Zone: "cold", Servers: []string{"m", "b"}})
	r.Emit(sec(1), ZoneReassign{Zone: "warm", Servers: []string{"c"}})
	r.Emit(sec(1), ZoneReassign{Zone: "hot", Servers: []string{"d"}})
	r.Emit(sec(1), FreqChange{Server: "d", Zone: "hot", GHz: 1.8})
	// Tick 2: decisions only — zone state must carry forward.
	r.Emit(sec(2), Migration{Service: "route", From: "c", To: "b", Zone: "cold"})
	r.Emit(sec(2), Promote{Service: "route", Level: "high", Reason: "warm-util-high"})
	r.Emit(sec(2), Demote{Service: "config", Level: "low", Reason: "power-shortage"})
	// Off-tick failure instant.
	r.Emit(sec(2.5), Crash{Service: "config", Node: "d"})
	r.Emit(sec(2.5), Restart{Service: "config", Node: "d"})
	r.Emit(sec(2.5), Scale{Service: "seat", From: 1, To: 2})

	tl := Timeline(r.Events())
	if len(tl) != 3 {
		t.Fatalf("got %d buckets, want 3", len(tl))
	}

	t1 := tl[0]
	if t1.At != sec(1) {
		t.Fatalf("bucket 1 at %v", t1.At)
	}
	if t1.ZonePop["cold"] != 2 || t1.ZonePop["warm"] != 1 || t1.ZonePop["hot"] != 1 {
		t.Fatalf("bucket 1 zone pops %v", t1.ZonePop)
	}
	if t1.ZoneFreq["hot"] != 1.8 {
		t.Fatalf("bucket 1 hot freq %v", t1.ZoneFreq)
	}
	if t1.PowerW != 300 || t1.BudgetW != 350 {
		t.Fatalf("bucket 1 power %v/%v", t1.PowerW, t1.BudgetW)
	}

	t2 := tl[1]
	if t2.ZonePop["cold"] != 2 || t2.ZoneFreq["hot"] != 1.8 || t2.PowerW != 300 {
		t.Fatal("bucket 2 did not carry forward zone/power state")
	}
	if t2.Migrations != 1 || t2.Promotions != 1 || t2.Demotions != 1 {
		t.Fatalf("bucket 2 decisions %+v", t2)
	}
	if t2.CumMigrations != 1 || t2.CumPromotions != 1 || t2.CumDemotions != 1 {
		t.Fatalf("bucket 2 cumulative counters %+v", t2)
	}

	t3 := tl[2]
	if t3.At != sec(2.5) || t3.Crashes != 1 || t3.Restarts != 1 || t3.Scales != 1 {
		t.Fatalf("bucket 3 = %+v", t3)
	}
	if t3.CumMigrations != 1 {
		t.Fatal("cumulative migration count must persist into later buckets")
	}
	// Summaries own their maps: mutating one must not leak into another.
	t3.ZonePop["cold"] = 99
	if tl[1].ZonePop["cold"] == 99 {
		t.Fatal("buckets share zone-pop maps")
	}
}

// TestTimelineOverWrappedRecorder folds a stream whose oldest instants
// were overwritten by ring wraparound: the timeline must start at the
// first *retained* instant and keep cumulative counters consistent with
// what survived (the recorder cannot resurrect dropped decisions).
func TestTimelineOverWrappedRecorder(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }
	r := NewRecorder(6)
	// Ticks 1-2 will be fully overwritten; tick 2's snapshot is lost too,
	// so carried-forward state must come from retained records only.
	r.Emit(sec(1), ZoneReassign{Zone: "hot", Servers: []string{"a", "b"}})
	r.Emit(sec(1), Migration{Service: "old", From: "a", To: "b", Zone: "hot"})
	r.Emit(sec(2), Migration{Service: "old2", From: "b", To: "a", Zone: "hot"})
	r.Emit(sec(2), Promote{Service: "old2", Level: "high", Reason: "warm-util-high"})
	// Retained window: ticks 3-5.
	r.Emit(sec(3), ZoneReassign{Zone: "hot", Servers: []string{"c"}})
	r.Emit(sec(3), PowerSample{Zone: "cluster", Watts: 280, Budget: 300})
	r.Emit(sec(4), Migration{Service: "new", From: "c", To: "d", Zone: "hot"})
	r.Emit(sec(4), QoSViolation{Series: "all", Quantile: "p95", ValueMs: 140, TargetMs: 100})
	r.Emit(sec(5), QoSRecovered{Series: "all", Quantile: "p95", ValueMs: 90, TargetMs: 100})
	r.Emit(sec(5), BudgetHeadroomLow{HeadroomW: 5, CapW: 300})
	if r.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", r.Dropped())
	}

	tl := Timeline(r.Events())
	if len(tl) != 3 {
		t.Fatalf("got %d buckets, want 3 (retained instants only)", len(tl))
	}
	t3 := tl[0]
	if t3.At != sec(3) {
		t.Fatalf("first retained bucket at %v", t3.At)
	}
	if t3.ZonePop["hot"] != 1 || t3.PowerW != 280 {
		t.Fatalf("bucket 3 state %v / %v: must reflect retained records only", t3.ZonePop, t3.PowerW)
	}
	t4 := tl[1]
	// Dropped migrations from ticks 1-2 must not inflate the cumulative
	// counter over the retained stream.
	if t4.Migrations != 1 || t4.CumMigrations != 1 {
		t.Fatalf("bucket 4 migrations %d cum %d, want 1/1", t4.Migrations, t4.CumMigrations)
	}
	if t5 := tl[2]; t5.At != sec(5) || t5.CumMigrations != 1 {
		t.Fatalf("bucket 5 = %+v", t5)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if tl := Timeline(nil); tl != nil {
		t.Fatalf("Timeline(nil) = %v, want nil", tl)
	}
}
