package metrics

import (
	"math"
	"time"
)

// WindowedHistogram is a sliding window over the last len(subs) ticks:
// samples land in the current sub-window, Rotate retires the oldest, and
// every query answers over the union of the live sub-windows. The
// telemetry sampler rotates once per sampling tick, so the window always
// covers the last len(subs) ticks — "p95 over the last W seconds" rather
// than since the start of the run.
//
// The window keeps one union StreamingHistogram of every live sample, so a
// query walks one histogram, not one per sub-window. Each sub-window
// records only its samples' bucket indices and its exact min and max:
// Rotate subtracts the retiring sub-window's buckets from the union, and
// Clone and CopyFrom copy the union plus the live records, so their cost
// grows with what the window holds, not with histBuckets × width. Add,
// Rotate and Quantiles allocate nothing once each sub-window's record has
// grown to its busiest tick.
type WindowedHistogram struct {
	// union is exactly the StreamingHistogram of the samples in the live
	// sub-windows, min and max included.
	union StreamingHistogram
	subs  []windowSub
	cur   int
}

// windowSub is one tick's share of a window: the bucket of each sample
// (histBuckets fits a uint16) and the exact extremes.
type windowSub struct {
	buckets  []uint16
	min, max time.Duration
}

// NewWindowedHistogram returns a window of w sub-windows (minimum 1).
func NewWindowedHistogram(w int) *WindowedHistogram {
	if w < 1 {
		w = 1
	}
	return &WindowedHistogram{subs: make([]windowSub, w)}
}

// Add records one sample into the current sub-window. Negative durations
// clamp to zero.
func (h *WindowedHistogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := histIndex(uint64(d))
	s := &h.subs[h.cur]
	switch {
	case len(s.buckets) == 0:
		s.min, s.max = d, d
	case d < s.min:
		s.min = d
	case d > s.max:
		s.max = d
	}
	s.buckets = append(s.buckets, uint16(b))
	h.union.record(d, b)
}

// Rotate advances the window: the oldest sub-window's samples leave the
// union and it becomes the new, empty, current one. After w rotations a
// sample has left the window entirely.
func (h *WindowedHistogram) Rotate() {
	h.cur = (h.cur + 1) % len(h.subs)
	s := &h.subs[h.cur]
	if len(s.buckets) == 0 {
		return
	}
	for _, b := range s.buckets {
		h.union.counts[b]--
	}
	h.union.count -= uint64(len(s.buckets))
	*s = windowSub{buckets: s.buckets[:0]}
	h.union.min, h.union.max = 0, 0
	seen := false
	for i := range h.subs {
		s := &h.subs[i]
		if len(s.buckets) == 0 {
			continue
		}
		if !seen || s.min < h.union.min {
			h.union.min = s.min
		}
		if s.max > h.union.max {
			h.union.max = s.max
		}
		seen = true
	}
}

// Count returns the number of samples in the window.
func (h *WindowedHistogram) Count() uint64 { return h.union.count }

// Min returns the smallest sample in the window, or 0 when empty.
func (h *WindowedHistogram) Min() time.Duration { return h.union.min }

// Max returns the largest sample in the window, or 0 when empty.
func (h *WindowedHistogram) Max() time.Duration { return h.union.max }

// maxWindowQuantiles bounds one Quantiles call (p50/p95/p99 plus headroom).
const maxWindowQuantiles = 8

// Quantiles resolves up to maxWindowQuantiles quantiles in one cumulative
// walk over the union, from the bucket of the window's minimum, writing
// out[i] for qs[i]. Each result is identical to the union's own Quantile —
// the property the unit tests pin — without a walk per quantile. It never
// allocates.
func (h *WindowedHistogram) Quantiles(qs []float64, out []time.Duration) {
	if len(qs) > maxWindowQuantiles || len(out) < len(qs) {
		panic("metrics: WindowedHistogram.Quantiles called with a bad shape")
	}
	n := h.Count()
	if n == 0 {
		for i := range qs {
			out[i] = 0
		}
		return
	}
	min, max := h.Min(), h.Max()

	// Each quantile interpolates between the order statistics at
	// floor(pos) and ceil(pos); collect the distinct ranks, resolve them
	// all in one walk, then interpolate.
	var ranks [2 * maxWindowQuantiles]uint64
	var vals [2 * maxWindowQuantiles]time.Duration
	nr := 0
	addRank := func(r uint64) {
		for i := 0; i < nr; i++ {
			if ranks[i] == r {
				return
			}
		}
		ranks[nr] = r
		nr++
	}
	for _, q := range qs {
		if q <= 0 || q >= 1 {
			continue
		}
		pos := q * float64(n-1)
		addRank(uint64(math.Floor(pos)))
		addRank(uint64(math.Ceil(pos)))
	}
	if nr > 0 {
		// Insertion-sort the ranks so the walk resolves them in order.
		for i := 1; i < nr; i++ {
			for j := i; j > 0 && ranks[j] < ranks[j-1]; j-- {
				ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		// No sample lies below the bucket of the window's minimum.
		var cum uint64
		next := 0
	walk:
		for i := histIndex(uint64(min)); i < histBuckets; i++ {
			cum += h.union.counts[i]
			for next < nr && cum > ranks[next] {
				// Same resolution as StreamingHistogram.valueAtRank: the
				// top of the bucket, clamped to the observed maximum.
				top := time.Duration(histLow(i) + histWidth(i) - 1)
				if top > max {
					top = max
				}
				vals[next] = top
				next++
				if next == nr {
					break walk
				}
			}
		}
		for ; next < nr; next++ {
			vals[next] = max
		}
	}
	valueAt := func(r uint64) time.Duration {
		for i := 0; i < nr; i++ {
			if ranks[i] == r {
				return vals[i]
			}
		}
		return max
	}
	for i, q := range qs {
		switch {
		case q <= 0:
			out[i] = min
		case q >= 1:
			out[i] = max
		default:
			pos := q * float64(n-1)
			lo := uint64(math.Floor(pos))
			hi := uint64(math.Ceil(pos))
			vlo := valueAt(lo)
			if lo == hi {
				out[i] = vlo
				continue
			}
			vhi := valueAt(hi)
			frac := pos - float64(lo)
			out[i] = vlo + time.Duration(frac*float64(vhi-vlo))
		}
	}
}

// Clone returns an independent deep copy of the window: the union is a
// value and the live sub-window records are copied into one fresh backing
// array, so mutating either side never shows in the other.
func (h *WindowedHistogram) Clone() *WindowedHistogram {
	c := &WindowedHistogram{union: h.union, subs: make([]windowSub, len(h.subs)), cur: h.cur}
	n := 0
	for i := range h.subs {
		n += len(h.subs[i].buckets)
	}
	buf := make([]uint16, n)
	for i, s := range h.subs {
		k := copy(buf, s.buckets)
		c.subs[i] = windowSub{buckets: buf[:k:k], min: s.min, max: s.max}
		buf = buf[k:]
	}
	return c
}

// CopyFrom overwrites this window's state with src's, reusing this
// window's record arrays where they are large enough — the restore half of
// snapshot/restore. It panics if the widths differ.
func (h *WindowedHistogram) CopyFrom(src *WindowedHistogram) {
	if len(h.subs) != len(src.subs) {
		panic("metrics: WindowedHistogram.CopyFrom with mismatched widths")
	}
	h.union = src.union
	for i, s := range src.subs {
		d := &h.subs[i]
		d.buckets = append(d.buckets[:0], s.buckets...)
		d.min, d.max = s.min, s.max
	}
	h.cur = src.cur
}
