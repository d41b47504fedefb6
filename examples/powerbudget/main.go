// Powerbudget: sweep the cluster power budget from 100% down to 70% of
// the measured maximum required power and compare ServiceFridge against
// the uniform Capping scheme — the essence of the paper's Figure 15.
//
//	go run ./examples/powerbudget
package main

import (
	"fmt"
	"log"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

func main() {
	base := engine.Config{
		Seed:        7,
		PoolWorkers: map[string]int{"A": 25, "B": 25},
		Warmup:      5 * time.Second,
		Duration:    15 * time.Second,
	}

	fmt.Println("calibrating maximum required power (uncapped run)...")
	maxReq := engine.CalibrateMaxRequired(base)
	fmt.Printf("maximum required power: %v\n\n", maxReq)

	tb := metrics.NewTable("Region A mean / p90 under decreasing budgets",
		"budget", "Capping mean", "Capping p90", "Fridge mean", "Fridge p90", "Fridge dyn power")
	for _, frac := range []float64{1.0, 0.9, 0.8, 0.7} {
		run := func(s engine.SchemeName) *engine.Result {
			cfg := base
			cfg.Scheme = s
			cfg.BudgetFraction = frac
			cfg.MaxRequired = maxReq
			res, err := engine.BuildE(cfg)
			if err != nil {
				log.Fatal(err)
			}
			res.Finish()
			return res
		}
		capping := run(engine.Capping)
		fridge := run(engine.ServiceFridge)
		cs, fs := capping.Summary("A"), fridge.Summary("A")
		tb.Rowf(fmt.Sprintf("%.0f%%", frac*100),
			cs.Mean, cs.P90, fs.Mean, fs.P90, fridge.Meter.MeanDynamic())
	}
	fmt.Println(tb)
	fmt.Println("ServiceFridge shields the critical path (region A) as the budget")
	fmt.Println("tightens, while uniform capping degrades it monotonically.")
}
