package experiments

// The parallel experiment executor. Every run owns a private sim.Engine
// and is a pure function of its Config, so independent runs are
// embarrassingly parallel; the only cross-run state is the calibration
// cache, which is singleflight-synchronized (see calibrated). Fan-out
// happens at two levels: across registry entries (RunAll) and across
// within-figure cells — scheme×budget, mix×frequency grids — via parMap.
// Both assemble results by input index, so the output is byte-identical
// to the sequential path for the same seed regardless of scheduling.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

// build constructs a run, panicking on an invalid configuration:
// experiment configs are written in code, and runOne reports the panic as
// the experiment's RunResult.Err.
func build(cfg engine.Config) *engine.Result {
	res, err := engine.BuildE(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// run builds cfg and executes it to completion, panicking like build.
func run(cfg engine.Config) *engine.Result {
	res := build(cfg)
	res.Finish()
	return res
}

// maxParallel bounds the number of simulation runs in flight per fan-out.
var maxParallel atomic.Int64

func init() { maxParallel.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the worker-pool width used by parMap and RunAll.
// n < 1 restores the default (GOMAXPROCS). 1 means fully sequential.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxParallel.Store(int64(n))
}

// Parallelism returns the current worker-pool width.
func Parallelism() int { return int(maxParallel.Load()) }

// parMap applies fn to every item on up to Parallelism() goroutines and
// returns the results in input order. fn must not depend on execution
// order (every simulation cell is seeded independently), which makes the
// assembled result identical to a sequential loop. A panicking cell is
// re-raised on the calling goroutine once every worker has stopped, so
// runOne's recover sees it at any width.
func parMap[T, R any](items []T, fn func(T) R) []R {
	out := make([]R, len(items))
	workers := Parallelism()
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i, it := range items {
			out[i] = fn(it)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Pointer[any]
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &p)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = fn(items[i])
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return out
}

// RunResult is one regenerated experiment.
type RunResult struct {
	Experiment Experiment
	Tables     []*metrics.Table
	// Elapsed is the wall-clock time of this experiment's Run call (runs
	// overlap under parallelism, so elapsed times do not sum to the total).
	Elapsed time.Duration
	// Err is non-nil when the experiment failed (a panicking run is
	// captured here rather than crashing the worker pool), so CLIs can
	// report it and exit non-zero instead of dying with a stack trace.
	Err error
}

// runOne executes one experiment, converting a panic into an error. The
// run executes under a pprof "experiment" label, which every goroutine
// the experiment spawns (the parMap cell workers) inherits — so CPU and
// goroutine profiles attribute samples per figure even at -parallel N.
func runOne(e Experiment, seed uint64) (tables []*metrics.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s panicked: %v", e.ID, p)
		}
	}()
	pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
		tables = e.Run(seed)
	})
	return tables, nil
}

// RunAll regenerates exps across a worker pool and calls emit exactly once
// per experiment, in input order, streaming each result as soon as it and
// all its predecessors have completed. Tables are identical to calling
// e.Run(seed) sequentially.
func RunAll(exps []Experiment, seed uint64, emit func(RunResult)) {
	done := make([]chan RunResult, len(exps))
	for i := range done {
		done[i] = make(chan RunResult, 1)
	}
	workers := Parallelism()
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				start := time.Now()
				tables, err := runOne(exps[i], seed)
				done[i] <- RunResult{Experiment: exps[i], Tables: tables, Elapsed: time.Since(start), Err: err}
			}
		}()
	}
	for i := range exps {
		emit(<-done[i])
	}
}
