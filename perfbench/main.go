// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's public packages, checks every output
// against committed references, and prints its metrics as the last line
// of standard output, one JSON object:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured without tracing. With --trace 1 the run measures the same
// workload untraced and then traced, and reports the per-layer metrics:
// spans the benchmark records around its own calls into each layer, the
// layers' public counters, the internal/prof phase totals, and layer
// probes run at the shape the traced run observed. The spans are written
// to .bench_build/spans/ when the run ends. METRICS.md maps every metric
// to its layer, the end-to-end metric it should move, and the workload.
//
// It must run from the repository root: the workloads read
// experiments_output.txt, testdata/ and BENCHMARK.json from there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run prepares its workload; setup_s is
// the median, so one slow preparation does not move it.
const setupReps = 5

// minPasses is the fewest timed passes a run makes, however long they
// take, so wall_s is always a median of at least three.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the metrics of one run, by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// tally counts operations and failed operations: a run error, a non-2xx
// response, or an output that differs from its reference. It is shared by
// the control-plane clients, hence the lock.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// op records one operation; a non-nil err marks it failed and is printed
// to standard error.
func (t *tally) op(err error) {
	t.mu.Lock()
	t.attempted++
	if err != nil {
		t.failed++
	}
	t.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// outcome is what one timed phase of a workload measured.
type outcome struct {
	// passes holds the host seconds of each timed pass; wall_s is their
	// median.
	passes []float64
	// cpu is the process CPU seconds (user and system, every thread) of
	// the timed phase per pass: what a pass costs, without the time the
	// host's other tenants take.
	cpu float64
	// report holds the workload's own end-to-end metrics (session and
	// what-if latencies, headline gap), printed as report lines.
	report metricSet
}

// bench is one benchmark workload.
type bench interface {
	// setup prepares a timed phase: reference loading, calibration,
	// server start. It runs setupReps times; the last one prepares the
	// phase that is measured.
	setup(t *tally) error
	// measure runs timed passes for at least seconds and minPasses,
	// recording spans into tr when it is non-nil.
	measure(seconds float64, t *tally, tr *tracer) *outcome
	// layers adds the per-layer metrics of a traced phase: counters of
	// engine runs driven at the workload's shape, and the layer probes.
	layers(t *tally, tr *tracer, out metricSet)
	// close stops whatever setup started.
	close()
}

var workloads = map[string]func(seed uint64, refs *references) bench{
	"paper-sweep":       newPaperSweep,
	"openloop-overload": newOpenLoop,
	"control-plane":     newControlPlane,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: paper-sweep, openloop-overload or control-plane")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 15, "host seconds to measure")
		traceFlag = flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
		writeRefs = flag.Int("write-refs", 0, "regenerate perfbench/refs.json for seeds 0..N-1 and exit")
	)
	flag.Parse()
	manifest, err := loadManifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *writeRefs > 0 {
		if err := generateReferences(*writeRefs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	h := fingerprint()
	hostLine, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hostLine)

	var t tally
	load0 := cpuSeconds()
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	refLoad := cpuSeconds() - load0
	w := mk(*seed, refs)
	defer w.close()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		cpu0 := cpuSeconds()
		if err := w.setup(&t); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, refLoad+cpuSeconds()-cpu0)
	}

	out := metricSet{}
	var spansPath string
	if *traceFlag == 0 {
		o := w.measure(*seconds, &t, nil)
		out.set("cpu_s", o.cpu, "s")
		out.set("setup_s", median(setups), "s")
		out.set("peak_rss_mb", peakRSSMB(), "MB")
		o.report.set("wall_s", median(o.passes), "s")
		printReport(*name, o, &t)
	} else {
		untraced := w.measure(*seconds/2, &t, nil)
		tr := newTracer()
		before := readGoMetrics()
		traced := w.measure(*seconds/2, &t, tr)
		goLayers(before, readGoMetrics(), tr, out)
		out.set("bench.trace_overhead", traced.cpu/untraced.cpu-1, "ratio")
		w.layers(&t, tr, out)
		spansPath, err = tr.write(*name, *seed, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans %s (%d spans)\n", spansPath, len(tr.spans))
	}

	want := manifest.EndToEnd
	if *traceFlag == 1 {
		want = manifest.PerLayer
	}
	if err := checkAgainstManifest(out, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport prints every end-to-end metric of the workload, one per
// line, including those the result line does not carry: error_frac and
// the workload's own latencies.
func printReport(name string, o *outcome, t *tally) {
	fmt.Printf("workload %s: %d timed passes\n", name, len(o.passes))
	errFrac := 0.0
	if t.attempted > 0 {
		errFrac = float64(t.failed) / float64(t.attempted)
	}
	fmt.Printf("metric error_frac %.6g fraction (%d of %d operations failed)\n", errFrac, t.failed, t.attempted)
	names := make([]string, 0, len(o.report))
	for n := range o.report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g %s\n", n, o.report[n].Value, o.report[n].Unit)
	}
}

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest() (*manifest, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// checkAgainstManifest fails the run when a metric BENCHMARK.json names
// is missing, carries another unit or is not a finite number, and when the
// output holds a metric BENCHMARK.json does not name.
func checkAgainstManifest(out metricSet, want []manifestMetric) error {
	var errs []error
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		got, ok := out[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s named in BENCHMARK.json is missing", m.Name))
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit))
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s is not a finite number", m.Name))
		}
	}
	for name := range out {
		if !named[name] {
			errs = append(errs, fmt.Errorf("metric %s is not named in BENCHMARK.json", name))
		}
	}
	return errors.Join(errs...)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// workers is how many goroutines a workload may use to generate work.
func workers() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}
