package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/trace"
)

// The critical-path cross-validation: the MCF model ranks services by how
// much they should gate response time; the blame accumulator measures, per
// request, which services actually did. Rank-correlating the two per
// mix×frequency cell probes exactly the fig14(b) question — when does a
// wrong (or coarse) MCF ranking matter? — with a measured ground truth
// instead of end-to-end latency deltas.

// critPathFreqs are the fixed worker frequencies the blame grid sweeps:
// unthrottled, mid-range, and the paper's lowest P-state.
var critPathFreqs = []float64{2.4, 1.8, 1.2}

// critPathCanonical selects the cell whose full blame profile is printed
// (and pinned by the golden test): the paper's standard 30:20 mix at
// 1.8GHz, where queueing, execution and frequency inflation all appear.
const (
	critPathCanonicalMix  = "30:20"
	critPathCanonicalFreq = 1.8
)

// critPathCell runs one mix×frequency cell: Baseline with every worker
// pinned at f (the Figure 5/6 isolation methodology), spans kept for the
// offline analysis.
func critPathCell(seed uint64, a, b, f float64) *engine.Result {
	return run(engine.Config{
		Seed:        seed,
		Scheme:      engine.Baseline,
		PoolWorkers: mixPools(a, b),
		FixedFreqs: map[string]cluster.GHz{
			"serverB": cluster.GHz(f), "serverC1": cluster.GHz(f),
			"serverC2": cluster.GHz(f), "serverC3": cluster.GHz(f),
		},
		Warmup:    3 * time.Second,
		Duration:  10 * time.Second,
		KeepSpans: true,
		ProfLabel: "ext-critpath",
	})
}

// ExtCritPath regenerates the MCF-vs-blame cross-validation: a Kendall
// τ-b table over every mix×frequency cell, plus the canonical cell's full
// per-region blame profiles.
func ExtCritPath(seed uint64) []*metrics.Table {
	type cell struct {
		mixLabel string
		a, b, f  float64
	}
	var cells []cell
	for _, m := range mixes() {
		for _, f := range critPathFreqs {
			cells = append(cells, cell{m.Label, m.A, m.B, f})
		}
	}
	type cellOut struct {
		tau              float64
		topBlame, topMCF string
		acc              *trace.BlameAccumulator
	}
	svcs := app.StudyServiceNames()
	outs := parMap(cells, func(c cell) cellOut {
		res := critPathCell(seed, c.a, c.b, c.f)
		acc := res.CritPathBlame()
		calc := core.NewCalculator(core.BuildGraph(res.Config.Spec))
		mcf := calc.MCF(map[string]float64{"A": c.a, "B": c.b}, cluster.GHz(c.f))
		x := make([]float64, len(svcs))
		y := make([]float64, len(svcs))
		for i, s := range svcs {
			x[i] = mcf[s]
			y[i] = float64(acc.ServiceTotal(s))
		}
		return cellOut{
			tau:      metrics.KendallTau(x, y),
			topBlame: argmaxName(svcs, y),
			topMCF:   argmaxName(svcs, x),
			acc:      acc,
		}
	})

	tb := metrics.NewTable(
		"Extension: MCF model vs measured critical-path blame (Kendall tau-b over the 8 study services)",
		"mix A:B", "freq", "tau", "top blame", "top MCF", "top agrees")
	var canonical *trace.BlameAccumulator
	for i, c := range cells {
		o := outs[i]
		tb.Row(c.mixLabel, ghzCol(c.f), fmt.Sprintf("%.3f", o.tau),
			o.topBlame, o.topMCF, yesNo(o.topBlame == o.topMCF))
		if c.mixLabel == critPathCanonicalMix && c.f == critPathCanonicalFreq {
			canonical = o.acc
		}
	}
	tables := []*metrics.Table{tb}
	label := fmt.Sprintf("mix %s @ %s, seed-deterministic Baseline run",
		critPathCanonicalMix, ghzCol(critPathCanonicalFreq))
	return append(tables, blameTables(canonical, label)...)
}

// blameTables renders a blame accumulator as one table per region:
// services sorted by descending blame, each row decomposing the share of
// summed response time the service gated (queue vs frequency-neutral
// execution vs DVFS inflation), with the per-request p95 read from the
// streaming histogram. The final row is critical-path time owned by no
// service (network gaps, fan-in waits); shares sum to 100% by the
// accumulator's telescoping identity.
func blameTables(acc *trace.BlameAccumulator, label string) []*metrics.Table {
	var out []*metrics.Table
	for _, region := range acc.Regions() {
		rb := acc.Region(region)
		tb := metrics.NewTable(
			fmt.Sprintf("Critical-path blame, region %s (%s; %d requests)", region, label, rb.Requests),
			"service", "path spans", "queue", "exec", "freq-infl", "total", "share", "p95/req")
		svcs := rb.Services()
		sort.SliceStable(svcs, func(i, j int) bool {
			ti, tj := rb.Service(svcs[i]).Total(), rb.Service(svcs[j]).Total()
			if ti != tj {
				return ti > tj
			}
			return svcs[i] < svcs[j]
		})
		for _, svc := range svcs {
			b := rb.Service(svc)
			tb.Rowf(svc, b.Spans, b.Queue, b.Exec, b.FreqInflation, b.Total(),
				pct(float64(b.Total())/float64(rb.Response)),
				b.PerRequest.Quantile(0.95))
		}
		tb.Rowf("(dispatch/net)", "-", "-", "-", "-", rb.Dispatch,
			pct(float64(rb.Dispatch)/float64(rb.Response)), "-")
		out = append(out, tb)
	}
	return out
}

// argmaxName returns the name with the largest value; ties resolve to the
// earliest name, keeping output deterministic.
func argmaxName(names []string, vals []float64) string {
	best := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[best] {
			best = i
		}
	}
	return names[best]
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ExportTracesJSON writes request traces of the canonical §6.4 study run
// (ServiceFridge at an 80% budget, spans kept) in Zipkin v2 JSON,
// deterministically sampled every sampleEvery-th completed request. Same
// seed, same bytes — regardless of the executor's -parallel width; the CI
// determinism gate diffs exactly that.
func ExportTracesJSON(seed uint64, sampleEvery int, w io.Writer) error {
	res := run(engine.Config{
		Seed:           seed,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		MaxRequired:    calibrated(seed),
		PoolWorkers:    studyPools(),
		Warmup:         5 * time.Second,
		Duration:       15 * time.Second,
		KeepSpans:      true,
		ProfLabel:      "traces-export",
	})
	return trace.WriteZipkin(w, res.Collector.Traces(), trace.ZipkinOptions{SampleEvery: sampleEvery})
}
