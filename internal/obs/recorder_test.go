package obs

import (
	"fmt"
	"testing"

	"servicefridge/internal/sim"
)

func TestRecorderRingBufferWraps(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Emit(sim.Time(i), Crash{Service: fmt.Sprintf("s%d", i), Node: "n"})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d records", len(evs))
	}
	// Oldest two were overwritten: retained stream starts at seq 2 and
	// stays (time, seq)-monotonic.
	for i, rec := range evs {
		wantSeq := uint64(i + 2)
		if rec.Seq != wantSeq || rec.At != sim.Time(wantSeq) {
			t.Fatalf("record %d = (at %d, seq %d), want (at %d, seq %d)",
				i, rec.At, rec.Seq, wantSeq, wantSeq)
		}
		if rec.Ev.(Crash).Service != fmt.Sprintf("s%d", wantSeq) {
			t.Fatalf("record %d carries wrong payload %+v", i, rec.Ev)
		}
	}
}

func TestRecorderUnderCapacityKeepsAll(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(1, Promote{Service: "a", Level: "high", Reason: "test"})
	r.Emit(2, Demote{Service: "b", Level: "low", Reason: "test"})
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if evs[0].Ev.Kind() != "promote" || evs[1].Ev.Kind() != "demote" {
		t.Fatalf("order lost: %v then %v", evs[0].Ev.Kind(), evs[1].Ev.Kind())
	}
}

func TestRecorderCapacityOne(t *testing.T) {
	r := NewRecorder(1)
	for i := 0; i < 5; i++ {
		r.Emit(sim.Time(i), Crash{Service: fmt.Sprintf("s%d", i), Node: "n"})
	}
	if r.Len() != 1 || r.Dropped() != 4 {
		t.Fatalf("Len=%d Dropped=%d, want 1/4", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Seq != 4 || evs[0].Ev.(Crash).Service != "s4" {
		t.Fatalf("capacity-1 ring should retain only the newest record, got %+v", evs)
	}
}

func TestRecorderExactlyFullDropsNothing(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 3; i++ {
		r.Emit(sim.Time(i), Restart{Service: "s", Node: "n"})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d: filling to exactly capacity must not drop", r.Len(), r.Dropped())
	}
	// The very next emit crosses the boundary and drops exactly one.
	r.Emit(3, Restart{Service: "s", Node: "n"})
	if r.Len() != 3 || r.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d after boundary emit, want 3/1", r.Len(), r.Dropped())
	}
	if evs := r.Events(); evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("retained seqs %d..%d, want 1..3", evs[0].Seq, evs[2].Seq)
	}
}

func TestRecorderMultipleWraps(t *testing.T) {
	const capacity, emits = 4, 26 // wraps the ring six times and then some
	r := NewRecorder(capacity)
	for i := 0; i < emits; i++ {
		r.Emit(sim.Time(i), Scale{Service: "s", From: i, To: i + 1})
	}
	if r.Len() != capacity || r.Dropped() != emits-capacity {
		t.Fatalf("Len=%d Dropped=%d, want %d/%d", r.Len(), r.Dropped(), capacity, emits-capacity)
	}
	for i, rec := range r.Events() {
		want := uint64(emits - capacity + i)
		if rec.Seq != want || rec.Ev.(Scale).From != int(want) {
			t.Fatalf("record %d = seq %d payload %+v, want seq %d", i, rec.Seq, rec.Ev, want)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, Crash{Service: "x", Node: "n"}) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should be the disabled event layer")
	}
}

// TestRecorderDefaultCapacity pins the bound a non-positive capacity
// selects: the ring keeps DefaultCapacity records and drops the next.
func TestRecorderDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		r := NewRecorder(capacity)
		for i := 0; i <= DefaultCapacity; i++ {
			r.Emit(sim.Time(i), Restart{Service: "s", Node: "n"})
		}
		if r.Len() != DefaultCapacity || r.Dropped() != 1 {
			t.Fatalf("capacity %d: Len=%d Dropped=%d after %d emits, want %d/1",
				capacity, r.Len(), r.Dropped(), DefaultCapacity+1, DefaultCapacity)
		}
	}
}
