package trace

import (
	"time"

	"servicefridge/internal/sim"
)

// CollectorState is a snapshot of the collector. Completed-trace stores
// (traces, finish-ordered series, per-service tallies) are append-only and
// their recorded prefixes are never mutated, so the snapshot keeps slice
// HEADERS and restore truncates by assigning them back — safe even if a
// later append reallocated the backing array. Open traces are mutated in
// place after the snapshot, so those are deep-copied.
type CollectorState struct {
	nextID uint64

	traces   []*Trace
	tallies  []tally
	all      seriesState
	byRegion map[string]regionSeriesState

	slab     []Trace
	openSnap []openTraceSnap
}

type seriesState struct {
	finish   []sim.Time
	resp     []time.Duration
	unsorted bool
}

type regionSeriesState struct {
	ptr *series
	val seriesState
}

type openTraceSnap struct {
	ptr   *Trace
	val   Trace
	spans []Span // deep copy, so no run resumed from the snapshot shares it
}

func captureSeries(s *series) seriesState {
	return seriesState{finish: s.finish, resp: s.resp, unsorted: s.unsorted}
}

func restoreSeries(s *series, st seriesState) {
	s.finish = st.finish
	s.resp = st.resp
	s.unsorted = st.unsorted
}

// Snapshot captures the collector's state.
func (c *Collector) Snapshot() *CollectorState {
	st := &CollectorState{
		nextID:   c.nextID,
		traces:   c.traces,
		tallies:  append([]tally(nil), c.tallies...),
		all:      captureSeries(&c.all),
		byRegion: make(map[string]regionSeriesState, len(c.byRegion)),
		slab:     c.slab,
		openSnap: make([]openTraceSnap, len(c.openList)),
	}
	for region, rs := range c.byRegion {
		st.byRegion[region] = regionSeriesState{ptr: rs, val: captureSeries(rs)}
	}
	for i, t := range c.openList {
		st.openSnap[i] = openTraceSnap{
			ptr:   t,
			val:   *t,
			spans: append([]Span(nil), t.Spans...),
		}
	}
	return st
}

// Restore rewinds the collector. The snapshot-era tail of the trace slab is
// re-zeroed (traces handed out after the snapshot wrote into it), and each
// open trace gets a fresh span array, so a resumed run's appends never
// overwrite spans of a trace an earlier resume completed.
func (c *Collector) Restore(st *CollectorState) {
	c.nextID = st.nextID
	c.traces = st.traces
	c.tallies = append(c.tallies[:0], st.tallies...)
	clear(c.tallyOf)
	for i, tl := range c.tallies {
		c.tallyOf[tl.service] = i
	}
	restoreSeries(&c.all, st.all)
	// Per-region series objects are reset in place, never deleted: like
	// the servers' per-tag busy boxes, a *series created once must stay
	// the map's value forever, because older snapshots hold its pointer.
	// A region first seen after the snapshot rewinds to empty, which is
	// indistinguishable from it never having been created.
	for region, rs := range c.byRegion {
		if _, ok := st.byRegion[region]; !ok {
			restoreSeries(rs, seriesState{finish: rs.finish[:0], resp: rs.resp[:0]})
		}
	}
	for _, rs := range st.byRegion {
		restoreSeries(rs.ptr, rs.val)
	}
	for i := range st.slab {
		st.slab[i] = Trace{}
	}
	c.slab = st.slab
	c.openList = c.openList[:0]
	for i := range st.openSnap {
		o := &st.openSnap[i]
		*o.ptr = o.val
		o.ptr.Spans = append([]Span(nil), o.spans...)
		o.ptr.openIdx = i
		c.openList = append(c.openList, o.ptr)
	}
}
