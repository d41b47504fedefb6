// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function of a seed that returns
// text tables with the same rows/series the paper reports; the benchmark
// harness (bench_test.go) and the experiments CLI both dispatch through
// the registry here.
//
// Absolute numbers differ from the paper's testbed (this substrate is a
// calibrated simulator, not five Dell R730s); the shapes — orderings,
// crossovers, approximate factors — are the reproduction target. See
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/power"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the short handle ("fig15", "table4").
	ID string
	// Title describes the paper artifact.
	Title string
	// Run regenerates the artifact.
	Run func(seed uint64) []*metrics.Table
}

// registry holds all experiments in paper order.
var registry = []Experiment{
	{"table2", "Table 2: testbed configuration", Table2},
	{"fig3", "Figure 3: execution-time distribution across a microservice region", Figure3},
	{"fig4", "Figure 4: call times of each microservice", Figure4},
	{"fig5", "Figure 5: response-time CDFs at different frequencies", Figure5},
	{"fig6", "Figure 6: effect of reducing frequency when isolating critical microservices", Figure6},
	{"fig7", "Figure 7: criticality changes under power capping", Figure7},
	{"table4", "Table 4: offline analysis of edge weight", Table4},
	{"fig11", "Figure 11: MCF vs request mix, quantity and power management", Figure11},
	{"fig12", "Figure 12: the effect of MCF variance on each microservice", Figure12},
	{"fig13", "Figure 13: frequency and power of representative microservices over time", Figure13},
	{"fig14", "Figure 14: the impact of mis-computing MCF on QoS", Figure14},
	{"fig15", "Figure 15: service time vs decreasing power budget across schemes", Figure15},
	{"fig16", "Figure 16: impact of power management schemes on representative microservices", Figure16},
	{"headline", "Headline: power reduction and QoS improvement of ServiceFridge", Headline},
}

// All returns every experiment in paper order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID looks an experiment up by its handle, covering both the paper
// registry and the extensions.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range extensions {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment handles in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// studyPools is the §6.4 load: 25 parallel workers on each region.
func studyPools() map[string]int { return map[string]int{"A": 25, "B": 25} }

// calibrated returns the measured maximum required power for the standard
// study workload, memoized per seed (several figures share it). The map is
// mutex-guarded and each entry carries a sync.Once, so concurrent callers
// singleflight on one calibration run per seed instead of racing or
// duplicating it.
type calibEntry struct {
	once sync.Once
	w    power.Watts
}

var (
	calibMu    sync.Mutex
	calibCache = map[uint64]*calibEntry{}
)

func calibrated(seed uint64) power.Watts {
	calibMu.Lock()
	e := calibCache[seed]
	if e == nil {
		e = &calibEntry{}
		calibCache[seed] = e
	}
	calibMu.Unlock()
	e.once.Do(func() {
		e.w = engine.CalibrateMaxRequired(engine.Config{
			Seed:        seed,
			PoolWorkers: studyPools(),
			Duration:    20 * time.Second,
			ProfLabel:   "calibrate",
		})
	})
	return e.w
}

// ghzCol formats a frequency column header.
func ghzCol(f float64) string { return fmt.Sprintf("%.1fGHz", f) }

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// abMix is one A:B access scenario: the request ratio and its label.
type abMix struct {
	Label string
	A, B  float64
}

// mixes returns the four access scenarios of §6.2 in paper order.
func mixes() []abMix {
	return []abMix{
		{"30:0", 30, 0},
		{"30:20", 30, 20},
		{"20:30", 20, 30},
		{"0:30", 0, 30},
	}
}

// mixPools converts an A:B ratio into per-region closed-loop pool sizes
// with 50 workers total, preserving the ratio.
func mixPools(a, b float64) map[string]int {
	total := a + b
	if total == 0 {
		return nil
	}
	na := int(50*a/total + 0.5)
	pools := map[string]int{}
	if na > 0 {
		pools["A"] = na
	}
	if 50-na > 0 {
		pools["B"] = 50 - na
	}
	return pools
}
