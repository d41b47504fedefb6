package experiments

import (
	"testing"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

// TestSweepWarmMatchesCold runs Figure-14-shaped cells — two traffic mixes
// interleaved across budgets, each with and without a mis-computed
// LoadOverride — through both sweep paths: the warm path's grouping by
// mix and reassembly into cell order must return exactly the cold results.
func TestSweepWarmMatchesCold(t *testing.T) {
	type cell struct {
		a, b     float64
		override map[string]float64
		budget   float64
		region   string
	}
	var cells []cell
	for _, bud := range []float64{1.0, 0.6} {
		cells = append(cells,
			cell{30, 0, nil, bud, "A"},
			cell{30, 0, map[string]float64{"B": 30}, bud, "A"},
			cell{0, 30, nil, bud, "B"},
			cell{0, 30, map[string]float64{"A": 30}, bud, "B"},
		)
	}
	type mix struct{ a, b float64 }
	do := func() []metrics.Summary {
		return sweep(cells,
			func(c cell) mix { return mix{c.a, c.b} },
			func(c cell) engine.Config {
				return engine.Config{
					Seed:           3,
					Scheme:         engine.ServiceFridge,
					BudgetFraction: c.budget,
					PoolWorkers:    mixPools(c.a, c.b),
					Warmup:         time.Second,
					Duration:       3 * time.Second,
				}
			},
			func(res *engine.Result, c cell) {
				res.SetBudgetFraction(c.budget)
				res.Fridge.LoadOverride = c.override
			},
			func(res *engine.Result, c cell) metrics.Summary { return res.Summary(c.region) })
	}
	withParallelism(t, 2)
	prev := WarmStart()
	t.Cleanup(func() { SetWarmStart(prev) })
	SetWarmStart(false)
	cold := do()
	SetWarmStart(true)
	warm := do()
	for i := range cells {
		if warm[i] != cold[i] {
			t.Fatalf("cell %d: warm %+v, cold %+v", i, warm[i], cold[i])
		}
	}
	if cold[0] == cold[2] {
		t.Fatal("cells of different mixes summarize identically; the test cannot catch a reordering")
	}
}
