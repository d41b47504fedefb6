package prof

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The package registry aggregates every live profiler for the process:
// CLIs enable it once (-profile), runs register their profilers at
// construction, and reports aggregate per label at the end. Aggregation
// reads the atomic accumulators, so it is safe while runs are still in
// flight (the /metrics scrape does exactly that).

var (
	enabled  atomic.Bool
	regMu    sync.Mutex
	registry []*Profiler
	// retired accumulates the totals of unregistered profilers, so the
	// /metrics counter families stay monotone when a control-plane
	// session is evicted: its seconds move from the live registry into
	// this bucket instead of vanishing.
	retired struct {
		nanos [NumPhases]float64
		count [NumPhases]int64
		alloc [NumPhases]int64
	}
)

// SetEnabled turns process-wide profiling on or off. When off (the
// default), New returns nil and every scope operation is a single
// pointer test on a nil profiler.
func SetEnabled(on bool) { enabled.Store(on) }

// New returns a registered profiler for label when profiling is enabled,
// and nil (the disabled profiler) otherwise. An empty label aggregates
// under "run".
func New(label string) *Profiler {
	if !enabled.Load() {
		return nil
	}
	p := newProfiler(label)
	Register(p)
	return p
}

// Register adds a detached profiler to the registry, so its counters
// appear in Aggregate and in the /metrics phase family. Nil-safe.
func Register(p *Profiler) {
	if p == nil {
		return
	}
	regMu.Lock()
	registry = append(registry, p)
	regMu.Unlock()
}

// Unregister removes a profiler from the registry (a control-plane
// session being evicted), folding its totals into the retired bucket so
// process-wide Totals never decrease. Nil-safe; unknown profilers are
// ignored.
func Unregister(p *Profiler) {
	if p == nil {
		return
	}
	regMu.Lock()
	for i, q := range registry {
		if q == p {
			registry = append(registry[:i], registry[i+1:]...)
			for _, t := range p.Totals() {
				retired.nanos[t.Phase] += t.Seconds
				retired.count[t.Phase] += t.Count
				retired.alloc[t.Phase] += t.AllocBytes
			}
			break
		}
	}
	regMu.Unlock()
}

// Reset clears the registry and the retired bucket (the enabled flag is
// left alone). Reports aggregate everything registered since the last
// Reset; the bench trajectory uses this to scope per-phase seconds to
// one measurement.
func Reset() {
	regMu.Lock()
	registry = nil
	retired.nanos = [NumPhases]float64{}
	retired.count = [NumPhases]int64{}
	retired.alloc = [NumPhases]int64{}
	regMu.Unlock()
}

// snapshotRegistry copies the registered profiler list under the lock.
func snapshotRegistry() []*Profiler {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]*Profiler(nil), registry...)
}

// LabelProfile is one label's aggregated phase breakdown.
type LabelProfile struct {
	Label string
	// WallSeconds is the label's total top-level scope time; phase
	// seconds sum to exactly this for quiesced profilers.
	WallSeconds float64
	Phases      []PhaseTotal
	// Runs counts the profilers (simulation runs) aggregated.
	Runs int
}

// Aggregate sums every registered profiler per label, labels sorted.
func Aggregate() []LabelProfile {
	type agg struct {
		wall  float64
		runs  int
		nanos [NumPhases]float64
		count [NumPhases]int64
		alloc [NumPhases]int64
	}
	byLabel := map[string]*agg{}
	for _, p := range snapshotRegistry() {
		a := byLabel[p.label]
		if a == nil {
			a = &agg{}
			byLabel[p.label] = a
		}
		a.wall += p.WallSeconds()
		a.runs++
		for _, t := range p.Totals() {
			a.nanos[t.Phase] += t.Seconds
			a.count[t.Phase] += t.Count
			a.alloc[t.Phase] += t.AllocBytes
		}
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]LabelProfile, 0, len(labels))
	for _, l := range labels {
		a := byLabel[l]
		lp := LabelProfile{Label: l, WallSeconds: a.wall, Runs: a.runs}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if a.count[ph] == 0 && a.nanos[ph] == 0 {
				continue
			}
			lp.Phases = append(lp.Phases, PhaseTotal{
				Phase: ph, Seconds: a.nanos[ph],
				Count: a.count[ph], AllocBytes: a.alloc[ph],
			})
		}
		out = append(out, lp)
	}
	return out
}

// Totals sums every registered profiler across labels, plus the retired
// bucket — the process-wide per-phase breakdown the /metrics
// fridge_phase_seconds_total family exposes. Monotone non-decreasing
// between Resets, as Prometheus counters require.
func Totals() []PhaseTotal {
	regMu.Lock()
	nanos := retired.nanos
	count := retired.count
	alloc := retired.alloc
	regMu.Unlock()
	for _, p := range snapshotRegistry() {
		for _, t := range p.Totals() {
			nanos[t.Phase] += t.Seconds
			count[t.Phase] += t.Count
			alloc[t.Phase] += t.AllocBytes
		}
	}
	out := make([]PhaseTotal, 0, NumPhases)
	for ph := Phase(0); ph < NumPhases; ph++ {
		if count[ph] == 0 && nanos[ph] == 0 {
			continue
		}
		out = append(out, PhaseTotal{
			Phase: ph, Seconds: nanos[ph], Count: count[ph], AllocBytes: alloc[ph],
		})
	}
	return out
}
