package main

// Layer probes: each times one layer's public operations in isolation, at
// the shape the traced run observed (calendar depth, standing queue,
// spans per request and open traces, arrival rate), so a probe measures
// the cost the workload actually pays rather than a fixed shape's.

import (
	"math"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/engine"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
	"servicefridge/internal/workload"
)

const (
	probeRounds = 3
	probeBudget = 40 * time.Millisecond
)

// probe runs round probeRounds times and returns the median ns per
// operation. round repeats its operation for about probeBudget and
// returns the elapsed time and how many operations it made.
func probe(round func() (time.Duration, int)) float64 {
	var ns []float64
	for i := 0; i < probeRounds; i++ {
		d, n := round()
		ns = append(ns, float64(d.Nanoseconds())/float64(max(n, 1)))
	}
	return median(ns)
}

// delays returns a fixed, varied set of calendar delays up to one second.
func delays() []time.Duration {
	rng := sim.NewRNG(7)
	out := make([]time.Duration, 4096)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(time.Second))
	}
	return out
}

// probeCalendar times one Schedule plus one Step with depth events
// standing in the calendar.
func probeCalendar(depth int) float64 {
	ds := delays()
	noop := func() {}
	return probe(func() (time.Duration, int) {
		eng := sim.NewEngine(1)
		for i := 0; i < depth; i++ {
			eng.Schedule(ds[i%len(ds)], noop)
		}
		start := time.Now()
		n := 0
		for time.Since(start) < probeBudget {
			for i := 0; i < 1024; i++ {
				eng.Schedule(ds[(n+i)%len(ds)], noop)
				eng.Step()
			}
			n += 1024
		}
		return time.Since(start), n
	})
}

// probeJob times one job from Submit to completion on a six-core server
// with queue jobs standing in its queue: every completion submits a
// replacement, so the depth holds.
func probeJob(queue int) float64 {
	ds := delays()
	return probe(func() (time.Duration, int) {
		eng := sim.NewEngine(1)
		srv := cluster.NewServer(eng, "probe", cluster.RoleNormalWorker, 6)
		k := 0
		var submit func()
		submit = func() {
			k++
			srv.Submit(&cluster.Job{Tag: "probe", Demand: ds[k%len(ds)] / 100, OnDone: submit})
		}
		for i := 0; i < srv.Cores()+queue; i++ {
			submit()
		}
		start := time.Now()
		n := 0
		for time.Since(start) < probeBudget {
			for i := 0; i < 256; i++ {
				eng.Step()
			}
			n += 256
		}
		return time.Since(start), n
	})
}

// probeLifecycle times StartTrace, spansPerRequest AddSpan calls and
// FinishTrace on a collector with open traces left open, as a run's
// backlog leaves them.
func probeLifecycle(spansPerRequest, open float64) float64 {
	k := max(int(math.Round(spansPerRequest)), 1)
	standing := int(math.Round(open))
	services := app.TwoRegionStudy().ServiceNames()
	return probe(func() (time.Duration, int) {
		col := trace.NewCollector()
		col.Presize(services, 0)
		for i := 0; i < standing; i++ {
			col.StartTrace("A", 0)
		}
		start := time.Now()
		n := 0
		at := sim.Time(0)
		for time.Since(start) < probeBudget {
			for i := 0; i < 16; i++ {
				at += sim.Time(time.Millisecond)
				t := col.StartTrace("A", at)
				for j := 0; j < k; j++ {
					col.AddSpan(t, trace.Span{
						Service: services[j%len(services)], Host: "serverC1",
						Submit: at, Start: at, End: at + sim.Time(time.Millisecond),
					})
				}
				col.FinishTrace(t, at+sim.Time(2*time.Millisecond))
			}
			n += 16
		}
		return time.Since(start), n
	})
}

type noopLauncher struct{}

func (noopLauncher) Launch(string, func(*trace.Trace)) {}

// probeArrival times one arrival of an open loop at rate requests per
// simulated second feeding a launcher that does nothing.
func probeArrival(rate float64) float64 {
	if rate <= 0 {
		rate = 1
	}
	return probe(func() (time.Duration, int) {
		eng := sim.NewEngine(1)
		ol := workload.NewOpenLoop(eng, noopLauncher{}, eng.RNG().Stream("probe"), workload.Ratio(1, 1))
		ol.SetRate(rate)
		start := time.Now()
		for time.Since(start) < probeBudget {
			for i := 0; i < 1024; i++ {
				eng.Step()
			}
		}
		return time.Since(start), int(ol.Launched())
	})
}

// probeRequest times one request of region from Launch to completion on
// an idle testbed (no generators), calendar and control ticks included.
func probeRequest(seed uint64, region string) float64 {
	return probe(func() (time.Duration, int) {
		res, err := engine.BuildE(engine.Config{Seed: seed, Prof: prof.NewDetached("probe")})
		if err != nil {
			return 0, 0
		}
		done := false
		onDone := func(*trace.Trace) { done = true }
		start := time.Now()
		n := 0
		for time.Since(start) < probeBudget {
			done = false
			res.Executor.Launch(region, onDone)
			for !done && res.Engine.Step() {
			}
			n++
		}
		return time.Since(start), n
	})
}
