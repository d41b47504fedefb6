// Quickstart: build the simulated TrainTicket testbed, run it for ten
// seconds under ServiceFridge at an 80% power budget, and print latency and
// power results.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

func main() {
	// One call builds the five-node cluster of the paper's Table 2,
	// deploys the two-region TrainTicket study application with the
	// round-robin orchestrator, and attaches the ServiceFridge
	// controller.
	res, err := engine.BuildE(engine.Config{
		Seed:           42,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		PoolWorkers:    map[string]int{"A": 25, "B": 25},
		Warmup:         3 * time.Second,
		Duration:       10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	res.Finish()

	fmt.Println("ServiceFridge quickstart — 80% power budget, 25+25 workers")
	fmt.Println()
	tb := metrics.NewTable("Response times", "region", "requests", "mean", "p90", "p99")
	for _, region := range []string{"A", "B"} {
		s := res.Summary(region)
		tb.Rowf(region, s.Count, s.Mean, s.P90, s.P99)
	}
	fmt.Println(tb)
	fmt.Printf("cluster dynamic power: mean %v, peak %v (cap %v)\n",
		res.Meter.MeanDynamic(), res.Meter.PeakDynamic(), res.Budget.Cap())
	fmt.Printf("criticality levels: %v\n", res.Fridge.Levels())
	fmt.Printf("container migrations performed: %d\n", res.Orch.Migrations())
}
