package obs

import (
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
)

// DefaultCapacity bounds a recorder's ring buffer when no explicit
// capacity is given: large enough for the longest experiment run (tens of
// events per control tick), small enough to stay cheap when attached
// everywhere.
const DefaultCapacity = 1 << 16

// Recorder accumulates events in a ring buffer bounded by its capacity.
// The buffer grows on demand, so a run pays for the events it records,
// not for the capacity; once it holds capacity events the oldest are
// overwritten and counted as dropped — recording never blocks or grows
// without bound.
//
// A Recorder is deliberately unsynchronized: one recorder belongs to one
// simulation run, and the simulator is single-threaded. All methods are
// nil-safe so instrumentation sites need no enabled-check; a nil *Recorder
// is the disabled event layer.
type Recorder struct {
	buf      []Record
	capacity int // bound on len(buf)
	start    int // index of the oldest record
	n        int // live records in buf
	seq      uint64
	dropped  uint64
	ledger   *Ledger // optional emit tee; hashes before ring wraparound
	// prof, when non-nil, attributes emit cost (record build plus the
	// ledger fold) to the encode phase. Wall-clock reads only — the
	// recorded stream is byte-identical with or without it.
	prof *prof.Profiler
}

// NewRecorder returns a recorder holding at most capacity events;
// capacity <= 0 selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Emit records ev at simulation time at. Emitting on a nil recorder is a
// no-op, so call sites never branch on whether observation is enabled.
func (r *Recorder) Emit(at sim.Time, ev Event) {
	if r == nil {
		return
	}
	r.prof.Enter(prof.Encode)
	defer r.prof.Exit()
	rec := Record{At: at, Seq: r.seq, Ev: ev}
	r.seq++
	if r.ledger != nil {
		r.ledger.fold(rec)
	}
	if r.n < r.capacity {
		r.buf = append(r.buf, rec)
		r.n++
		return
	}
	// Full: overwrite the oldest.
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Len returns the number of retained records.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// SetLedger attaches (or detaches, with nil) a run ledger: every record
// is hashed into the ledger's pending tick at emit time, so the ledger
// covers the full stream even after ring wraparound discards old records.
func (r *Recorder) SetLedger(l *Ledger) {
	if r == nil {
		return
	}
	r.ledger = l
}

// SetProfiler attaches (or detaches, with nil) a phase profiler; emits
// are then attributed to the encode phase.
func (r *Recorder) SetProfiler(p *prof.Profiler) {
	if r == nil {
		return
	}
	r.prof = p
}

// Dropped returns how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained records oldest-first. The slice is a copy;
// mutating it does not affect the recorder.
func (r *Recorder) Events() []Record {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Record, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}
