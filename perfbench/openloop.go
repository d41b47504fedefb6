package main

// openloop-overload: the study app driven through the engine API by
// open-loop Poisson arrivals at 1.2× its closed-loop throughput, under
// Baseline, Capping and ServiceFridge at an 80% budget. The backlog keeps
// growing, so server queues, open traces and the calendar grow deep: the
// shape paper-sweep never reaches. No forks.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/power"
	"servicefridge/internal/prof"
)

// overloadRates are 1.2× the seed-1 closed-loop throughput of the study
// app (5.0 and 318.7 req/s with 25+25 workers).
var overloadRates = map[string]float64{"A": 6, "B": 380}

var overloadSchemes = []engine.SchemeName{engine.Baseline, engine.Capping, engine.ServiceFridge}

// overloadHorizon is how far each run simulates.
const overloadHorizon = 60 * time.Second

type openLoop struct {
	seed   uint64
	refs   *references
	maxReq power.Watts
	first  string
	// traced holds the counters of the traced phase's runs.
	traced runStats
}

func newOpenLoop(seed uint64, refs *references) bench {
	return &openLoop{seed: seed, refs: refs}
}

// setup calibrates MaxRequired as ext-openloop does: the peak draw of the
// uncapped closed-loop study load.
func (w *openLoop) setup(*tally) error {
	w.maxReq = engine.CalibrateMaxRequired(engine.Config{
		Seed:        w.seed,
		PoolWorkers: studyPools(),
		Warmup:      5 * time.Second,
		Duration:    15 * time.Second,
	})
	if w.maxReq <= 0 {
		return fmt.Errorf("calibration measured no power")
	}
	return nil
}

func (w *openLoop) config(scheme engine.SchemeName) engine.Config {
	return engine.Config{
		Seed:           w.seed,
		Scheme:         scheme,
		BudgetFraction: 0.8,
		MaxRequired:    w.maxReq,
		OpenLoopRate:   overloadRates,
		Warmup:         5 * time.Second,
		Duration:       overloadHorizon - 5*time.Second,
		ProfLabel:      "openloop-" + string(scheme),
	}
}

func summaryLine(region string, s metrics.Summary) string {
	return fmt.Sprintf("%s n=%d mean=%v p90=%v p95=%v p99=%v max=%v",
		region, s.Count, s.Mean, s.P90, s.P95, s.P99, s.Max)
}

// pass runs the three schemes once and returns their summaries. Each
// scheme's run is one operation, failed when it cannot be built.
func (w *openLoop) pass(t *tally, tr *tracer, group string, st *runStats) string {
	var out strings.Builder
	for _, scheme := range overloadSchemes {
		g := group + "/" + string(scheme)
		b := tr.begin("engine.BuildE", g, 0)
		res, err := engine.BuildE(w.config(scheme))
		tr.end(b, nil)
		t.op(err)
		if err != nil {
			continue
		}
		drive(res, g, 0, tr, st)
		s := tr.begin("engine.Summary", g, 0)
		a, bsum := res.Summary("A"), res.Summary("B")
		tr.end(s, nil)
		fmt.Fprintf(&out, "%s events=%d dyn=%.6f\n  %s\n  %s\n", scheme, res.Engine.Processed(),
			float64(res.Meter.MeanDynamic()), summaryLine("A", a), summaryLine("B", bsum))
		if st != nil {
			st.foldProfile(res.Config.Prof)
		}
	}
	return out.String()
}

// checkPass compares a pass's summaries with the committed digest for the
// seed and with the run's first pass. One operation.
func (w *openLoop) checkPass(t *tally, out string) {
	var err error
	if want, ok := w.refs.OpenLoop[seedKey(w.seed)]; ok && digest([]byte(out)) != want {
		err = fmt.Errorf("openloop-overload: seed %d summaries differ from their reference digest", w.seed)
	}
	if w.first == "" {
		w.first = out
	} else if out != w.first {
		err = errors.Join(err, fmt.Errorf("openloop-overload: seed %d summaries differ between passes", w.seed))
	}
	t.op(err)
}

func (w *openLoop) measure(seconds float64, t *tally, tr *tracer) *outcome {
	var st *runStats
	if tr != nil {
		prof.SetEnabled(true)
		prof.Reset()
		defer prof.SetEnabled(false)
		w.traced = runStats{}
		st = &w.traced
	}
	o := &outcome{report: metricSet{}}
	start, cpu0 := time.Now(), cpuSeconds()
	for i := 0; i < minPasses || since(start) < seconds; i++ {
		t0 := time.Now()
		out := w.pass(t, tr, "pass"+strconv.Itoa(i), st)
		o.passes = append(o.passes, since(t0))
		w.checkPass(t, out)
	}
	o.cpu = (cpuSeconds() - cpu0) / float64(len(o.passes))
	return o
}

// layers adds the per-layer metrics, from the traced phase's own runs.
func (w *openLoop) layers(_ *tally, _ *tracer, out metricSet) {
	profLayers(out)
	notExercised(out, serverLayers)
	notExercised(out, experimentLayers)
	engineLayers(&w.traced, w.seed, out)
}

func (w *openLoop) close() {}
