package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

// Property: in every meter sample, the per-tag attribution sums to the
// server's dynamic component (within float tolerance), for arbitrary job
// mixes and frequencies.
func TestMeterTagAttributionConservation(t *testing.T) {
	f := func(seed uint64, nJobs uint8) bool {
		eng := sim.NewEngine(seed)
		cl := cluster.New(eng)
		s1 := cl.AddServer("n1", cluster.RoleNormalWorker, 4)
		s2 := cl.AddServer("n2", cluster.RoleNormalWorker, 4)
		r := eng.RNG().Stream("jobs")
		tags := []string{"svcA", "svcB", "svcC"}
		n := int(nJobs%40) + 5
		for i := 0; i < n; i++ {
			srv := s1
			if r.Intn(2) == 0 {
				srv = s2
			}
			tag := tags[r.Intn(len(tags))]
			d := time.Duration(r.Intn(30)+1) * time.Millisecond
			at := time.Duration(r.Intn(400)) * time.Millisecond
			eng.Schedule(at, func() {
				srv.Submit(&cluster.Job{Tag: tag, Demand: d})
			})
		}
		eng.Schedule(200*time.Millisecond, func() { s1.SetFreq(1.6) })
		m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
		m.Start()
		eng.RunUntil(sim.Time(time.Second))

		for _, smp := range m.Samples() {
			var sum Watts
			for _, w := range smp.ByTag {
				if w < 0 {
					return false
				}
				sum += w
			}
			dyn := smp.Power - m.Model().Idle
			if math.Abs(float64(sum-dyn)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: cluster sample totals equal the sum of the per-server samples
// at the same instant.
func TestMeterClusterTotalsConsistent(t *testing.T) {
	eng := sim.NewEngine(5)
	cl := cluster.DefaultTestbed(eng)
	r := eng.RNG().Stream("jobs")
	for i := 0; i < 200; i++ {
		srv := cl.Servers()[r.Intn(cl.Size())]
		d := time.Duration(r.Intn(20)+1) * time.Millisecond
		at := time.Duration(r.Intn(900)) * time.Millisecond
		eng.Schedule(at, func() { srv.Submit(&cluster.Job{Tag: "x", Demand: d}) })
	}
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	eng.RunUntil(sim.Time(time.Second))

	perAt := map[sim.Time]Watts{}
	for _, smp := range m.Samples() {
		perAt[smp.At] += smp.Power
	}
	for _, cs := range m.ClusterSamples() {
		if math.Abs(float64(perAt[cs.At]-cs.Total)) > 1e-6 {
			t.Fatalf("at %v: per-server sum %v != cluster total %v", cs.At, perAt[cs.At], cs.Total)
		}
	}
}
