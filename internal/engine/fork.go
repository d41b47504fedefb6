package engine

import (
	"fmt"
	"math"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
	"servicefridge/internal/workload"
)

// Session-safe forking. A RunState can only be restored into the Result
// it was taken from (calendar closures capture pointers into the live
// object graph), so a what-if fork is not a second engine: it is a
// detour on the same one. The what-if control plane (internal/server)
// runs one in three steps, every one deterministic:
//
//   - Baseline. The unperturbed branch from any fork point is the run
//     itself finished to its end, so it is computed once per session
//     (at the session's own Finish, or by finishing the live run at its
//     first what-if) and memoized.
//   - Detour. ReplayTo(base, at) from the t=0 base snapshot, perturb
//     (budget, clamp, load, traffic), Finish, read the branch's stats.
//   - Resume, lazily. The engine stays detoured until something reads
//     live state; then ReplayTo(base, paused) rebuilds it, with
//     telemetry publication suspended so no rewound sample escapes.
//
// Resuming MUST replay (ReplayTo), not restore a bookmark snapshot taken
// before the detour: snapshots share append-only backing arrays (trace
// stores, slabs) with the live run, and a perturbed branch overwrites
// the region beyond its fork point with different values — values a
// bookmark's prefix may cover. Replaying from the base rebuilds every
// store from the true event sequence, bit-identical to a run that never
// forked. Unperturbed detours are exempt (a deterministic replay writes
// back the exact bytes it overwrites), which is why warm-started sweeps
// may keep restoring one snapshot without replaying.

// Total returns the simulation end time of the run (Config.End): the
// deadline Finish advances the clock to.
func (r *Result) Total() sim.Time { return sim.Time(r.Config.End()) }

// End returns the simulated time a run of c ends at: Warmup+Duration, or
// the phase schedule's (or traffic profile's) end when that is longer.
func (c Config) End() time.Duration {
	c.fill()
	end := c.Warmup + c.Duration
	if ph := phaseLength(c.Phases); ph > end {
		end = ph
	}
	if c.Profile != nil {
		if l := c.Profile.Length(); l > end {
			end = l
		}
	}
	return end
}

// ReplayTo rewinds the run to base and replays it forward to at. It is
// both the fork primitive and the only sound way to resume a paused run
// after a perturbed detour (see the comment above). base must have been
// taken from this Result at a time <= at; out-of-range times return an
// error and leave the run untouched.
func (r *Result) ReplayTo(base *RunState, at sim.Time) error {
	if at < base.Now() {
		return fmt.Errorf("engine: replay time %v precedes the base snapshot at %v", at, base.Now())
	}
	if total := r.Total(); at > total {
		return fmt.Errorf("engine: replay time %v exceeds the run's end %v", at, total)
	}
	r.Restore(base)
	r.Engine.RunUntil(at)
	r.ResetStats()
	return nil
}

// ScaleWorkers multiplies the configured closed-loop worker count by
// factor (rounded to nearest, floored at one worker when the original
// pool was non-empty) — the what-if load perturbation. Region pools and
// open loops are left untouched.
func (r *Result) ScaleWorkers(factor float64) {
	n := int(math.Round(float64(r.Config.Workers) * factor))
	if n < 1 && r.Config.Workers > 0 && factor > 0 {
		n = 1
	}
	if n < 0 {
		n = 0
	}
	r.Gen.SetWorkers(n)
}

// ClampFreq installs a max-frequency clamp on every server (max <= 0
// removes it) — the what-if frequency perturbation. Schemes keep issuing
// DVFS decisions; the clamp bounds what the hardware honours.
func (r *Result) ClampFreq(max cluster.GHz) {
	r.Cluster.SetAllMaxFreq(max)
}

// ScaleTraffic multiplies every profile-driven setpoint by factor — the
// what-if load perturbation for time-varying runs (ScaleWorkers covers the
// steady closed-loop generator). Current levels re-apply immediately;
// future setpoints scale as they fire.
func (r *Result) ScaleTraffic(factor float64) error {
	if r.Driver == nil {
		return fmt.Errorf("engine: run has no traffic profile (ScaleTraffic applies to Profile-driven runs)")
	}
	if factor <= 0 {
		return fmt.Errorf("engine: traffic factor %v must be positive", factor)
	}
	r.Driver.SetScale(factor)
	return nil
}

// SwapProfile replaces the remaining traffic schedule with p from the
// current simulation time on — the what-if "what if the traffic had turned
// into X at t" perturbation. Past-due setpoints of p apply immediately
// (latest per region wins); regions p never mentions keep their levels.
func (r *Result) SwapProfile(p *workload.Profile) error {
	if r.Driver == nil {
		return fmt.Errorf("engine: run has no traffic profile to swap")
	}
	return r.Driver.Swap(p)
}
