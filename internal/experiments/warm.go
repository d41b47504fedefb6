package experiments

import (
	"sync/atomic"

	"servicefridge/internal/engine"
)

// Warm-started sweeps. A budget sweep's cells share everything up to the
// first budget-dependent event (the first control tick), so instead of
// replaying the identical prefix once per cell, a warm sweep builds one
// donor run per cell group and forks it once per cell (engine.ForkEach:
// snapshot at the budget-independence barrier, then restore, prep, finish).
// Outputs are byte-identical to the cold path (pinned by internal/engine's
// snapshot property tests, TestSweepWarmMatchesCold and the CI determinism
// leg), so warm start is purely a wall-clock optimization and stays opt-in
// behind the CLIs' -warmstart flag. sweep is the only reader of the flag.

// warmStart selects sweep's warm path; everything else always runs cold.
var warmStart atomic.Bool

// SetWarmStart toggles warm-started sweeps for subsequent experiment runs.
func SetWarmStart(on bool) { warmStart.Store(on) }

// WarmStart reports whether warm-started sweeps are enabled.
func WarmStart() bool { return warmStart.Load() }

// sweep runs one simulation per cell and returns collect's results in cell
// order. Each cell's run is config(c), adjusted by prep between build and
// Finish. Cold, every cell is built and run from t=0 on the worker pool.
// Warm, cells with equal key share one donor built from the first such
// cell's config — so their configs may differ only in what prep sets — and
// the donor groups fan out on the worker pool instead.
func sweep[C any, K comparable, R any](cells []C, key func(C) K, config func(C) engine.Config,
	prep func(*engine.Result, C), collect func(*engine.Result, C) R) []R {
	if !WarmStart() {
		return parMap(cells, func(c C) R {
			res := build(config(c))
			prep(res, c)
			res.Finish()
			return collect(res, c)
		})
	}
	var groups [][]int // cell indices per key, in first-appearance order
	slot := map[K]int{}
	for i, c := range cells {
		k := key(c)
		g, ok := slot[k]
		if !ok {
			g = len(groups)
			slot[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	perGroup := parMap(groups, func(idx []int) []R {
		gcells := make([]C, len(idx))
		for j, i := range idx {
			gcells[j] = cells[i]
		}
		return engine.ForkEach(build(config(gcells[0])), gcells, prep, collect)
	})
	out := make([]R, len(cells))
	for g, idx := range groups {
		for j, i := range idx {
			out[i] = perGroup[g][j]
		}
	}
	return out
}
