package main

import (
	"math"
	"runtime/metrics"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
)

// chunk is how far each RunUntil call advances the simulation; the
// control plane's sessions advance in the same steps.
const chunk = sim.Time(time.Second)

// runStats accumulates the public counters of the engine runs the
// benchmark drives itself through the engine API. The sim, cluster, app,
// trace and workload metrics come from these runs: on openloop-overload
// they are the workload's own runs, elsewhere the shape runs (see
// METRICS.md).
type runStats struct {
	events       uint64
	simSeconds   float64
	dispatchWall float64 // host seconds inside RunUntil
	pendingPeak  int
	queueSum     float64 // Σ Server.QueueLen over servers and chunk boundaries
	queueSamples int
	queuePeak    int
	openPeak     int
	openSum      float64 // Σ Collector.Open over chunk boundaries
	openSamples  int
	jobs         uint64
	freqChanges  uint64
	requests     uint64
	traces       uint64
	launched     uint64
	promotions   uint64
	demotions    uint64
	migrations   uint64
	dropped      uint64
	profWall     float64
	phase        [prof.NumPhases]float64
	allocBytes   uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocNow() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// drive advances a built run to its end in one-simulated-second RunUntil
// chunks, then calls Finish. With a non-nil st it samples the layer
// counters at every chunk boundary and folds the run's counters into st
// at the end; with a non-nil tr it records a span per call.
func drive(res *engine.Result, group string, parent int, tr *tracer, st *runStats) {
	alloc0 := allocNow()
	start := res.Engine.Now()
	total := res.Total()
	for now := start; now < total; {
		next := now + chunk
		if next > total {
			next = total
		}
		id := tr.begin("sim.RunUntil", group, parent)
		t0 := time.Now()
		res.Engine.RunUntil(next)
		if st != nil {
			st.dispatchWall += since(t0)
		}
		now = next
		if st == nil {
			tr.end(id, nil)
			continue
		}
		pending := res.Engine.Pending()
		qsum, qmax := 0, 0
		for _, s := range res.Cluster.Servers() {
			q := s.QueueLen()
			qsum += q
			qmax = max(qmax, q)
			st.queueSamples++
		}
		open := res.Collector.Open()
		st.queueSum += float64(qsum)
		st.pendingPeak = max(st.pendingPeak, pending)
		st.queuePeak = max(st.queuePeak, qmax)
		st.openPeak = max(st.openPeak, open)
		st.openSum += float64(open)
		st.openSamples++
		tr.end(id, map[string]float64{
			"sim.events":          float64(res.Engine.Processed()),
			"sim.pending":         float64(pending),
			"cluster.queue_total": float64(qsum),
			"cluster.queue_max":   float64(qmax),
			"trace.open":          float64(open),
			"app.requests":        float64(res.Executor.Completed()),
		})
	}
	id := tr.begin("engine.Finish", group, parent)
	res.Finish()
	tr.end(id, nil)
	if st == nil {
		return
	}
	st.events += res.Engine.Processed()
	st.simSeconds += res.Engine.Now().Sub(start).Seconds()
	for _, s := range res.Cluster.Servers() {
		st.jobs += s.Completed()
		st.freqChanges += s.FreqChanges()
	}
	st.requests += res.Executor.Completed()
	st.traces += uint64(res.Collector.Count(""))
	st.launched += res.Gen.Launched()
	for _, p := range res.Pools {
		st.launched += p.Launched()
	}
	for _, o := range res.OpenLoops {
		st.launched += o.Launched()
	}
	if res.Fridge != nil {
		st.promotions += res.Fridge.Promotions()
		st.demotions += res.Fridge.Demotions()
	}
	st.migrations += res.Orch.Migrations()
	st.dropped += res.Config.Events.Dropped()
	st.allocBytes += allocNow() - alloc0
}

// foldProfile adds a finished run's phase profile to st.
func (st *runStats) foldProfile(p *prof.Profiler) {
	st.profWall += p.WallSeconds()
	for _, t := range p.Totals() {
		st.phase[t.Phase] += t.Seconds
	}
}

// phaseTotals sums prof.Totals() by phase: the process-wide profile of
// the traced phase (every registered run and session profiler).
func phaseTotals() (secs [prof.NumPhases]float64, counts [prof.NumPhases]int64) {
	for _, t := range prof.Totals() {
		secs[t.Phase] += t.Seconds
		counts[t.Phase] += t.Count
	}
	return secs, counts
}

// profCounters reads the phase totals to attach to a span that ends, or
// nothing on a nil tracer.
func profCounters(tr *tracer) map[string]float64 {
	if tr == nil {
		return nil
	}
	secs, counts := phaseTotals()
	return map[string]float64{
		"engine.build_s":    secs[prof.Build],
		"engine.dispatch_s": secs[prof.Dispatch],
		"engine.snapshot_s": secs[prof.Snapshot],
		"app.invocations":   float64(counts[prof.Exec]),
	}
}

// profLayers sets the metrics read from the internal/prof phase totals of
// the traced phase.
func profLayers(out metricSet) {
	secs, counts := phaseTotals()
	out.set("engine.build_s", secs[prof.Build], "s")
	out.set("engine.dispatch_s", secs[prof.Dispatch], "s")
	out.set("engine.snapshot_s", secs[prof.Snapshot], "s")
	out.set("app.invocations", float64(counts[prof.Exec]), "count")
	out.set("fridge.ticks", float64(counts[prof.Tick]), "count")
	out.set("fridge.tick_s", secs[prof.Tick], "s")
	out.set("fridge.zones_s", secs[prof.Zones], "s")
	out.set("core.mcf_s", secs[prof.MCF], "s")
	out.set("telemetry.sample_s", secs[prof.Telemetry], "s")
	out.set("obs.encode_s", secs[prof.Encode], "s")
	out.set("obs.seal_s", secs[prof.Seal], "s")
}

// shape is what the layer probes are sized by: what the traced run
// observed, not fixed sizes.
type shape struct {
	pendingPeak     int
	queueMean       float64
	spansPerRequest float64
	openMean        float64
	arrivalRate     float64 // requests per simulated second
}

func (st *runStats) shape() shape {
	sh := shape{pendingPeak: st.pendingPeak}
	if st.queueSamples > 0 {
		sh.queueMean = st.queueSum / float64(st.queueSamples)
	}
	if st.openSamples > 0 {
		sh.openMean = st.openSum / float64(st.openSamples)
	}
	if st.requests > 0 {
		sh.spansPerRequest = float64(st.jobs) / float64(st.requests)
	}
	if st.simSeconds > 0 {
		sh.arrivalRate = float64(st.launched) / st.simSeconds
	}
	return sh
}

// engineLayers sets the sim, cluster, app, trace, workload, fridge and
// orchestrator metrics from st, runs the layer probes at st's shape, and
// derives each layer's share of the driven runs' profiled wall time.
// A layer's share is its probe cost times its count over that wall time;
// bench.unattributed_share is what neither the shares nor the non-dispatch
// prof phases claim: mostly request execution in internal/app, which has
// no exclusive probe (app.request_ns.* is inclusive).
func engineLayers(st *runStats, seed uint64, out metricSet) {
	sh := st.shape()
	calNs := probeCalendar(sh.pendingPeak)
	jobNs := probeJob(int(math.Round(sh.queueMean)))
	lifeNs := probeLifecycle(sh.spansPerRequest, sh.openMean)
	arrNs := probeArrival(sh.arrivalRate)
	reqA, reqB := probeRequest(seed, "A"), probeRequest(seed, "B")

	out.set("sim.events", float64(st.events), "count")
	out.set("sim.ns_per_event", ratio(st.dispatchWall*1e9, float64(st.events)), "ns")
	out.set("sim.sim_s_per_wall_s", ratio(st.simSeconds, st.dispatchWall), "ratio")
	out.set("sim.pending_peak", float64(st.pendingPeak), "count")
	out.set("sim.calendar_ns", calNs, "ns")
	out.set("cluster.jobs", float64(st.jobs), "count")
	out.set("cluster.queue_mean", sh.queueMean, "count")
	out.set("cluster.queue_peak", float64(st.queuePeak), "count")
	out.set("cluster.freq_changes", float64(st.freqChanges), "count")
	out.set("cluster.job_ns", jobNs, "ns")
	out.set("app.requests", float64(st.requests), "count")
	out.set("app.request_ns.A", reqA, "ns")
	out.set("app.request_ns.B", reqB, "ns")
	out.set("trace.traces", float64(st.traces), "count")
	out.set("trace.open_peak", float64(st.openPeak), "count")
	out.set("trace.lifecycle_ns", lifeNs, "ns")
	out.set("workload.launched", float64(st.launched), "count")
	out.set("workload.arrival_ns", arrNs, "ns")
	out.set("fridge.promotions", float64(st.promotions), "count")
	out.set("fridge.demotions", float64(st.demotions), "count")
	out.set("orchestrator.migrations", float64(st.migrations), "count")
	out.set("obs.events_dropped", float64(st.dropped), "count")
	out.set("go.alloc_bytes_per_event", ratio(float64(st.allocBytes), float64(st.events)), "bytes")

	// The job and arrival probes each make one calendar Schedule+Step per
	// operation, at the probe's own depth (one per core, one); sim.share
	// already counts every event, so their shares take that cost out.
	jobSelf := max(jobNs-probeCalendar(6), 0)
	arrSelf := max(arrNs-probeCalendar(1), 0)
	wallNs := st.profWall * 1e9
	shares := map[string]float64{
		"sim.share":      ratio(calNs*float64(st.events), wallNs),
		"cluster.share":  ratio(jobSelf*float64(st.jobs), wallNs),
		"trace.share":    ratio(lifeNs*float64(st.traces), wallNs),
		"workload.share": ratio(arrSelf*float64(st.launched), wallNs),
	}
	rest := 1.0
	for name, v := range shares {
		out.set(name, v, "fraction")
		rest -= v
	}
	for p := prof.Phase(0); p < prof.NumPhases; p++ {
		if p != prof.Dispatch {
			rest -= ratio(st.phase[p], st.profWall)
		}
	}
	out.set("bench.unattributed_share", rest, "fraction")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// notExercised sets metrics of layers the workload never calls: zero
// seconds spent, zero calls made.
func notExercised(out metricSet, names map[string]string) {
	for name, unit := range names {
		out.set(name, 0, unit)
	}
}

var serverLayers = map[string]string{
	"server.create_ms":         "ms",
	"server.queue_wait_ms":     "ms",
	"server.run_ms":            "ms",
	"server.result_ms":         "ms",
	"server.ledger_ms":         "ms",
	"server.polls_per_session": "count",
	"server.http_errors":       "count",
}

var experimentLayers = map[string]string{
	"experiments.fig14_s":    "s",
	"experiments.fig15_s":    "s",
	"experiments.headline_s": "s",
}
