// Zones: watch ServiceFridge's hot/warm/cold zone management react to a
// traffic phase change — which servers belong to which zone, what
// frequency each zone runs at, and which containers migrate.
//
//	go run ./examples/zones
package main

import (
	"fmt"
	"log"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/fridge"
	"servicefridge/internal/workload"
)

func main() {
	base := engine.Config{
		Seed:        11,
		PoolWorkers: map[string]int{"A": 20, "B": 20},
		Duration:    20 * time.Second,
	}
	maxReq := engine.CalibrateMaxRequired(base)

	cfg := base
	cfg.Scheme = engine.ServiceFridge
	cfg.BudgetFraction = 0.8
	cfg.MaxRequired = maxReq
	cfg.PoolWorkers = nil
	cfg.Mix = workload.Ratio(1, 1)
	// Phase 1: mixed traffic. Phase 2: Basic Ticketing only — criticality
	// collapses and zones re-form.
	cfg.Phases = []workload.Phase{
		{Duration: 20 * time.Second, Workers: 40, Mix: workload.Ratio(30, 20)},
		{Duration: 20 * time.Second, Workers: 40, Mix: workload.Ratio(0, 30)},
	}
	cfg.Warmup = 5 * time.Second
	cfg.Duration = 35 * time.Second

	res, err := engine.BuildE(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report := func(phase string) {
		fmt.Printf("— %s —\n", phase)
		for _, z := range []fridge.Zone{fridge.Cold, fridge.Warm, fridge.Hot} {
			var names []string
			for _, s := range res.Fridge.ZoneServers(z) {
				names = append(names, s.Name())
			}
			fmt.Printf("  %-5s zone @ %-7v servers=%v\n", z, res.Fridge.ZoneFreq(z), names)
		}
		fmt.Printf("  levels: %v\n", res.Fridge.Levels())
		fmt.Printf("  migrations so far: %d, promotions: %d, demotions: %d\n\n",
			res.Orch.Migrations(), res.Fridge.Promotions(), res.Fridge.Demotions())
	}

	res.Engine.RunFor(18 * time.Second)
	report("t=18s, mixed A:B = 30:20 traffic")
	res.Engine.RunFor(20 * time.Second)
	report("t=38s, after switch to pure Basic Ticketing (0:30)")

	fmt.Println("When every service shares one criticality level the zones collapse")
	fmt.Println("and the controller applies a uniform setting, as in the paper's §6.3.")
}
