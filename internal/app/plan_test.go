package app

import (
	"math"
	"slices"
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// checkPlannedDraw draws n demands from p and, on an identically seeded
// stream, from rng.LogNormal as the executor drew them before call plans
// existed. It requires the same float bits before the Duration conversion,
// the same demands, and the same stream positions after every draw.
func checkPlannedDraw(t *testing.T, what string, p callPlan, n int) {
	t.Helper()
	planned, raw, direct := sim.NewRNG(99), sim.NewRNG(99), sim.NewRNG(99)
	mean := float64(p.mean)
	for i := 0; i < n; i++ {
		want := p.mean
		if p.ms.Jitter > 0 {
			v := direct.LogNormal(mean, p.ms.Jitter*mean)
			got := 0.0
			if p.logNormal {
				got = math.Exp(raw.Norm(p.mu, p.sigma))
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s draw %d: planned %v, LogNormal %v", what, i, got, v)
			}
			want = time.Duration(v)
		}
		if got := p.demand(planned); got != want {
			t.Fatalf("%s draw %d: demand %v, want %v", what, i, got, want)
		}
		if planned.State() != direct.State() {
			t.Fatalf("%s draw %d: streams diverged", what, i)
		}
	}
}

// TestPlannedDemandMatchesLogNormal pins the cached log-normal parameters
// to RNG.LogNormal bit for bit: over every (mean, jitter) pair the builtin
// families use, and over a random table.
func TestPlannedDemandMatchesLogNormal(t *testing.T) {
	pairs := 0
	for _, name := range BuiltinNames() {
		fam, _ := Builtin(name)
		spec := fam.New()
		for _, rn := range spec.RegionNames() {
			r := spec.Region(rn)
			checkPlannedDraw(t, name+"/"+rn+" api", r.api, 8)
			pairs++
			for _, st := range r.plan {
				for _, p := range st {
					checkPlannedDraw(t, name+"/"+rn+" "+p.ms.Name, p, 8)
					pairs++
				}
			}
		}
	}
	if pairs < 40 {
		t.Fatalf("checked only %d builtin calls", pairs)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		ms := &Microservice{Name: "m", Jitter: rng.Float64() * 0.6}
		mean := time.Duration(rng.Float64() * float64(50*time.Millisecond))
		if i%10 == 0 {
			mean = time.Duration(rng.Intn(3)) // 0, 1 and 2ns edge cases
		}
		checkPlannedDraw(t, "random", newCallPlan(ms, 1, 1, mean), 3)
	}
}

// TestZeroMeanDemandConsumesNoDraw: like RNG.LogNormal, a zero mean
// demands zero without touching the stream, as does a zero jitter.
func TestZeroMeanDemandConsumesNoDraw(t *testing.T) {
	for _, c := range []struct {
		jitter float64
		mean   time.Duration
	}{{0.3, 0}, {0, 5 * time.Millisecond}, {0, 0}} {
		p := newCallPlan(&Microservice{Name: "m", Jitter: c.jitter}, 1, 1, c.mean)
		rng := sim.NewRNG(3)
		before := rng.State()
		if got := p.demand(rng); got != c.mean {
			t.Fatalf("jitter %v mean %v: demand %v", c.jitter, c.mean, got)
		}
		if rng.State() != before {
			t.Fatalf("jitter %v mean %v: demand consumed a draw", c.jitter, c.mean)
		}
	}
}

// TestRegionServiceListMatchesFirstCallOrder pins every builtin region's
// precomputed distinct-callee list to first-call order over Calls(), the
// order ServiceNames() derived on every call before it was cached.
func TestRegionServiceListMatchesFirstCallOrder(t *testing.T) {
	for _, name := range BuiltinNames() {
		fam, _ := Builtin(name)
		spec := fam.New()
		for _, rn := range spec.RegionNames() {
			r := spec.Region(rn)
			var want []string
			for _, c := range r.Calls() {
				if !slices.Contains(want, c.Service) {
					want = append(want, c.Service)
				}
			}
			if got := r.ServiceNames(); !slices.Equal(got, want) {
				t.Fatalf("%s/%s: services %v, want %v", name, rn, got, want)
			}
		}
	}
}
