package experiments

import (
	"fmt"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/metrics"
)

// Table2 reproduces the testbed configuration table.
func Table2(uint64) []*metrics.Table {
	roles := metrics.NewTable("Table 2 (a): node roles", "node", "role", "running MS", "description")
	roles.Row("serverA", "swarm manager", "Zipkin/UI", "web interface for observing")
	roles.Row("serverB", "power worker", "observed MS", "observing MS at various V/F settings")
	roles.Row("serverC1,C2,C3", "normal worker", "other MS", "excluding other influence factors")

	conf := metrics.NewTable("Table 2 (b): cluster & server configuration", "item", "value")
	conf.Row("cluster", "4 worker nodes (24 cores) + 1 manager node")
	conf.Row("server", "6-core 2.4GHz CPU, 100W nameplate (simulated Xeon E5-2620 v3)")
	conf.Row("DVFS", fmt.Sprintf("%v..%v in 0.1GHz steps (%d P-states)",
		cluster.FreqMin, cluster.FreqMax, len(cluster.PStates())))
	conf.Row("power model", "P = 45W idle + 55W*(f/2.4)^3*util per server")
	conf.Row("orchestration", "round-robin container scheduler (docker-swarm-like)")
	conf.Row("tracing", "per-request span collector (Zipkin-like)")
	return []*metrics.Table{roles, conf}
}

// Figure4 reproduces the per-request call times of each microservice in
// the Advanced Search region of the full TrainTicket application, and
// verifies the static profile against traced requests.
func Figure4(seed uint64) []*metrics.Table {
	spec := app.TrainTicket()
	region := spec.Region("advanced-search")

	// Replay a handful of requests to confirm the measured call times
	// match the offline profile.
	res := runProfile(seed, spec, "advanced-search", 20, cluster.FreqMax, "")

	tb := metrics.NewTable("Figure 4: calling times per request (advanced-search region)",
		"microservice", "call times (profile)", "call times (measured)")
	for _, svc := range region.ServiceNames() {
		c, _ := region.CallTo(svc)
		measured := res.Collector.MeanCallTimes(svc, "advanced-search")
		tb.Rowf(svc, c.Times, measured)
	}
	return []*metrics.Table{tb}
}

// Figure7 reproduces the paper's toy example: four microservices a-d whose
// criticality ordering changes between 2.4GHz and 2.0GHz. The digits on
// each microservice are its execution time; the number of appearances is
// its call times (a: 9x1 insensitive, b: 3x3 sensitive, c: 2x5, d: 2x1).
func Figure7(uint64) []*metrics.Table {
	spec := app.NewSpec()
	spec.AddService(app.Microservice{Name: "api", Kind: app.KindAPI})
	spec.AddService(app.Microservice{Name: "a", Kind: app.KindFunction, CPUShare: 0.0})
	spec.AddService(app.Microservice{Name: "b", Kind: app.KindFunction, CPUShare: 0.9})
	spec.AddService(app.Microservice{Name: "c", Kind: app.KindFunction, CPUShare: 0.2})
	spec.AddService(app.Microservice{Name: "d", Kind: app.KindFunction, CPUShare: 0.5})
	spec.AddRegion(app.Region{
		Name: "r", API: "api", APIExec: time.Millisecond,
		Stages: []app.Stage{{
			{Service: "a", Times: 1, Exec: 9 * time.Millisecond},
			{Service: "b", Times: 3, Exec: 3 * time.Millisecond},
			{Service: "c", Times: 5, Exec: 2 * time.Millisecond},
			{Service: "d", Times: 1, Exec: 2 * time.Millisecond},
		}},
	})
	calc := core.NewCalculator(core.BuildGraph(spec))
	load := map[string]float64{"r": 10}

	tb := metrics.NewTable("Figure 7: criticality rank at 2.4GHz vs 2.0GHz",
		"rank", "at 2.4GHz", "MCF", "at 2.0GHz", "MCF")
	at24 := calc.MCF(load, cluster.FreqMax)
	at20 := calc.MCF(load, 2.0)
	r24 := core.Rank(at24)
	r20 := core.Rank(at20)
	for i := range r24 {
		tb.Rowf(i+1, r24[i], at24[r24[i]], r20[i], at20[r20[i]])
	}
	return []*metrics.Table{tb}
}

// Table4 reproduces the offline analysis of edge weight: per-region
// execution time (ET), call times (CT) and weight (W = ET*CT) for the
// eight studied microservices.
func Table4(uint64) []*metrics.Table {
	spec := app.TwoRegionStudy()
	tb := metrics.NewTable("Table 4: offline analysis of edge weight",
		"metric", "region", "ticketinfo", "basic", "seat", "travel", "station", "route", "config", "train")
	rowFor := func(metric, region string, get func(c app.Call, ok bool) string) {
		r := spec.Region(region)
		cells := []string{metric, region}
		for _, svc := range app.StudyServiceNames() {
			c, ok := r.CallTo(svc)
			cells = append(cells, get(c, ok))
		}
		tb.Row(cells...)
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", metrics.Ms(d)) }
	for _, region := range []string{"A", "B"} {
		rowFor("ET (ms)", region, func(c app.Call, ok bool) string {
			if !ok {
				return "0"
			}
			return ms(c.Exec)
		})
	}
	for _, region := range []string{"A", "B"} {
		rowFor("CT", region, func(c app.Call, ok bool) string {
			if !ok {
				return "0"
			}
			return fmt.Sprintf("%d", c.Times)
		})
	}
	for _, region := range []string{"A", "B"} {
		rowFor("W (ms)", region, func(c app.Call, ok bool) string {
			if !ok {
				return "0"
			}
			return ms(c.Weight())
		})
	}
	return []*metrics.Table{tb}
}

// Figure11 reproduces the MCF heatmaps: normalized MCF of the eight
// studied services under the four A:B access scenarios and seven V/F
// settings, with the three-level classification per scenario.
func Figure11(uint64) []*metrics.Table {
	// Each scenario heatmap evaluates MCF at seven frequencies — pure CPU
	// work, so each worker builds its own calculator and the four tables
	// assemble in paper order.
	return parMap(mixes(), func(mx abMix) *metrics.Table {
		spec := app.TwoRegionStudy()
		calc := core.NewCalculator(core.BuildGraph(spec))
		classifier := core.NewClassifier(calc)
		load := map[string]float64{"A": mx.A, "B": mx.B}
		header := []string{"microservice"}
		for _, f := range cluster.ProfilePoints() {
			header = append(header, ghzCol(float64(f)))
		}
		header = append(header, "level")
		tb := metrics.NewTable(fmt.Sprintf("Figure 11: normalized MCF at A:B = %s", mx.Label), header...)

		levels := classifier.Classify(load)
		// Columns descend from 2.4GHz like the paper's x-axis.
		points := cluster.ProfilePoints()
		for _, svc := range app.StudyServiceNames() {
			cells := []string{svc}
			for i := len(points) - 1; i >= 0; i-- {
				mcf := calc.MCF(load, points[i])
				cells = append(cells, fmt.Sprintf("%.3f", mcf[svc]))
			}
			// Reverse to ascending-frequency header order.
			rev := []string{svc}
			for i := len(cells) - 1; i >= 1; i-- {
				rev = append(rev, cells[i])
			}
			rev = append(rev, levels[svc].String())
			tb.Row(rev...)
		}
		return tb
	})
}
