package metrics

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// fillWindow distributes samples across rotations: rotate every per
// samples, keeping only the most recent width*per samples in the window.
func fillWindow(w *WindowedHistogram, samples []time.Duration, per int) {
	for i, d := range samples {
		if i > 0 && i%per == 0 {
			w.Rotate()
		}
		w.Add(d)
	}
}

// liveWindow returns the suffix of samples still covered by the window
// after fillWindow(w, samples, per).
func liveWindow(samples []time.Duration, width, per int) []time.Duration {
	if len(samples) == 0 {
		return nil
	}
	// The current sub-window holds the last partial batch; the other
	// width-1 subs hold the preceding full batches.
	last := len(samples) % per
	if last == 0 {
		last = per
	}
	keep := last + (width-1)*per
	if keep > len(samples) {
		keep = len(samples)
	}
	return samples[len(samples)-keep:]
}

// TestWindowedHistogramMatchesMergedReference pins the fused-walk
// contract: every quantile and aggregate over the window is identical to
// one StreamingHistogram built from the samples still in the window —
// across corpora, window widths, and rotation cadences, including windows
// that have fully wrapped and dropped old samples.
func TestWindowedHistogramMatchesMergedReference(t *testing.T) {
	qs := []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	for name, samples := range corpora() {
		for _, width := range []int{1, 2, 4, 7} {
			for _, per := range []int{1, 3, 50, 999} {
				w := NewWindowedHistogram(width)
				fillWindow(w, samples, per)

				var ref StreamingHistogram
				for _, d := range liveWindow(samples, width, per) {
					ref.Add(d)
				}
				if w.Count() != ref.Count() || w.Min() != ref.min || w.Max() != ref.Max() {
					t.Fatalf("%s w=%d per=%d: aggregates %d/%v/%v vs reference %d/%v/%v",
						name, width, per,
						w.Count(), w.Min(), w.Max(),
						ref.Count(), ref.min, ref.Max())
				}

				var out [maxWindowQuantiles]time.Duration
				w.Quantiles(qs, out[:])
				for i, q := range qs {
					if want := ref.Quantile(q); out[i] != want {
						t.Errorf("%s w=%d per=%d q=%v: fused %v vs reference %v",
							name, width, per, q, out[i], want)
					}
				}
			}
		}
	}
}

// TestWindowedHistogramForgets pins the sliding semantics: after width
// rotations, earlier samples no longer influence any statistic.
func TestWindowedHistogramForgets(t *testing.T) {
	w := NewWindowedHistogram(3)
	w.Add(time.Hour) // an outlier that must age out
	for i := 0; i < 3; i++ {
		w.Rotate()
		w.Add(time.Millisecond)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d, want 3", w.Count())
	}
	if got := w.Max(); got != time.Millisecond {
		t.Fatalf("max = %v: the outlier should have aged out", got)
	}
	var out [1]time.Duration
	if w.Quantiles([]float64{1}, out[:]); out[0] != time.Millisecond {
		t.Fatalf("q1 = %v, want 1ms", out[0])
	}
}

// TestWindowedHistogramEmpty covers the zero-sample paths.
func TestWindowedHistogramEmpty(t *testing.T) {
	w := NewWindowedHistogram(4)
	if w.Count() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("empty window must report zeros")
	}
	qs := []float64{0, 0.5, 1}
	out := []time.Duration{1, 1, 1}
	w.Quantiles(qs, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("q=%v on empty window = %v, want 0", qs[i], v)
		}
	}
	w.Rotate() // rotating an empty window is fine
	if w.Count() != 0 {
		t.Fatal("rotate changed an empty window")
	}
	if len(NewWindowedHistogram(0).subs) != 1 {
		t.Fatal("width clamps to at least 1")
	}
}

// TestWindowedHistogramHotPathZeroAllocs pins the telemetry sampling
// claim: recording, rotating and querying the window never allocate.
func TestWindowedHistogramHotPathZeroAllocs(t *testing.T) {
	w := NewWindowedHistogram(5)
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		w.Add(time.Duration(rng.Exp(float64(5 * time.Millisecond))))
	}
	qs := []float64{0.5, 0.95, 0.99}
	var out [3]time.Duration
	d := time.Millisecond
	allocs := testing.AllocsPerRun(500, func() {
		d += 191 * time.Microsecond
		w.Add(d)
		w.Quantiles(qs, out[:])
		w.Rotate()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.3f objects/op, want 0", allocs)
	}
}

// TestWindowedHistogramCloneAfterRotations pins Clone and CopyFrom on
// windows whose sub-window records have wrapped several times: the window,
// a clone taken mid-stream, and a diverged window restored from it with
// CopyFrom each hold exactly the StreamingHistogram of the samples still in
// the window, min and max included — at the copy, and at every tick after
// it while the copied sub-windows retire one by one.
func TestWindowedHistogramCloneAfterRotations(t *testing.T) {
	samples := corpora()["lognormal"]
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	const per = 37
	const cut = 11*per + 5 // eleven rotations, then part of a tick
	for _, width := range []int{1, 3, 7} {
		check := func(name string, win *WindowedHistogram, seen []time.Duration) {
			t.Helper()
			var ref StreamingHistogram
			for _, d := range liveWindow(seen, width, per) {
				ref.Add(d)
			}
			if win.union != ref {
				t.Fatalf("w=%d %s after %d samples: union %d/%v/%v differs from a histogram of the live samples %d/%v/%v",
					width, name, len(seen), win.Count(), win.Min(), win.Max(), ref.Count(), ref.min, ref.Max())
			}
			var out [maxWindowQuantiles]time.Duration
			win.Quantiles(qs, out[:])
			for i, q := range qs {
				if want := ref.Quantile(q); out[i] != want {
					t.Fatalf("w=%d %s after %d samples q=%v: %v, want %v", width, name, len(seen), q, out[i], want)
				}
			}
		}
		w := NewWindowedHistogram(width)
		fillWindow(w, samples[:cut], per)
		clone := w.Clone()
		// A restore target whose records differ from w's in length and
		// extremes.
		restored := NewWindowedHistogram(width)
		fillWindow(restored, samples[cut:cut+400], 3)
		restored.CopyFrom(w)

		end := cut + (width+2)*per
		for name, win := range map[string]*WindowedHistogram{"window": w, "clone": clone, "restored": restored} {
			check(name, win, samples[:cut])
			for i := cut; i < end; i++ {
				if i%per == 0 {
					win.Rotate()
				}
				win.Add(samples[i])
				check(name, win, samples[:i+1])
			}
		}
	}
}

// TestWindowedHistogramCloneNoAliasing pins the snapshot contract of
// Clone/CopyFrom: a clone must share no mutable state with its parent —
// adds and rotations on either side stay invisible to the other — and
// CopyFrom must rewind a diverged window to exactly the cloned state.
func TestWindowedHistogramCloneNoAliasing(t *testing.T) {
	w := NewWindowedHistogram(4)
	for i := 0; i < 40; i++ {
		if i%10 == 0 {
			w.Rotate()
		}
		w.Add(time.Duration(i+1) * time.Millisecond)
	}
	snap := w.Clone()
	p95 := []float64{0.95}
	var got, want [1]time.Duration
	w.Quantiles(p95, want[:])
	wantCount, wantMax := w.Count(), w.Max()

	// Mutate the parent heavily: new samples, full wraparound.
	for i := 0; i < 100; i++ {
		if i%5 == 0 {
			w.Rotate()
		}
		w.Add(time.Hour)
	}
	if snap.Quantiles(p95, got[:]); snap.Count() != wantCount || snap.Max() != wantMax || got != want {
		t.Fatalf("clone changed when parent mutated: count %d max %v p95 %v, want %d %v %v",
			snap.Count(), snap.Max(), got[0], wantCount, wantMax, want[0])
	}

	// Mutate the clone: the parent must not see it.
	parentCount := w.Count()
	snap.Add(time.Minute)
	snap.Rotate()
	if w.Count() != parentCount {
		t.Fatalf("parent changed when clone mutated: count %d, want %d", w.Count(), parentCount)
	}

	// CopyFrom restores the diverged parent to a fresh clone's state.
	snap2 := NewWindowedHistogram(4)
	fillWindow(snap2, []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}, 2)
	w.CopyFrom(snap2)
	w.Quantiles(p95, got[:])
	snap2.Quantiles(p95, want[:])
	if w.Count() != snap2.Count() || w.Max() != snap2.Max() || got != want {
		t.Fatalf("CopyFrom mismatch: count %d max %v, want %d %v", w.Count(), w.Max(), snap2.Count(), snap2.Max())
	}
	// ...and shares no state with its source either.
	snap2.Add(time.Hour)
	if w.Count() == snap2.Count() {
		t.Fatal("CopyFrom aliased the source window")
	}

	// Width mismatch is a programming error and must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched widths did not panic")
		}
	}()
	w.CopyFrom(NewWindowedHistogram(2))
}
