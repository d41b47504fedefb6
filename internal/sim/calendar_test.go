package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

// refEvent / refHeap reimplement the engine's original calendar — a
// container/heap of pointer events ordered by (time, seq) — as the
// reference the value-typed 4-ary heap is checked against.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)         { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any           { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h refHeap) min() (Time, uint64) { return h[0].at, h[0].seq }

// TestFourAryHeapMatchesContainerHeap drives the engine's calendar and the
// container/heap reference through identical randomized push/pop
// interleavings (duplicate timestamps included) and requires byte-for-byte
// identical (time, seq) pop order — the determinism contract the whole
// experiment harness rests on.
func TestFourAryHeapMatchesContainerHeap(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		eng := NewEngine(seed)
		r := eng.RNG().Stream("heapprop")
		var ref refHeap
		ops := int(n%2000) + 50
		nop := func() {}
		for i := 0; i < ops; i++ {
			if len(eng.events) == 0 || r.Intn(3) != 0 {
				// Push: coarse timestamps force plenty of (time) ties so
				// the seq tiebreak is actually exercised.
				at := eng.now.Add(time.Duration(r.Intn(16)) * time.Millisecond)
				heap.Push(&ref, &refEvent{at: at, seq: eng.seq})
				eng.push(at, nop, 0)
			} else {
				wat, wseq := ref.min()
				got := eng.popMin()
				heap.Pop(&ref)
				if got.at != wat || got.seq != wseq {
					t.Logf("pop mismatch: got (%v,%d), reference (%v,%d)", got.at, got.seq, wat, wseq)
					return false
				}
				// Let the clock advance like a real run so later pushes
				// use strictly growing bases.
				eng.now = got.at
			}
		}
		for len(eng.events) > 0 {
			wat, wseq := ref.min()
			got := eng.popMin()
			heap.Pop(&ref)
			if got.at != wat || got.seq != wseq {
				t.Logf("drain mismatch: got (%v,%d), reference (%v,%d)", got.at, got.seq, wat, wseq)
				return false
			}
		}
		return ref.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleStepZeroAllocs pins the tentpole claim: once the calendar
// slice has grown to its working size, a Schedule+Step cycle performs no
// heap allocation — no per-event object, no interface boxing.
func TestScheduleStepZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := Handler(func() {})
	// Grow the calendar once, then drain to steady state.
	eng.Grow(4096)
	for i := 0; i < 1024; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	for i := 0; i < 512; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(time.Millisecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.2f objects/op, want 0", allocs)
	}
}

// TestTimerZeroAllocs requires the cancellable-timer path (After, Stop,
// and the skip-at-pop reclamation) to be allocation-free in steady state:
// the generation-counter slot table recycles through its freelist.
func TestTimerZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := Handler(func() {})
	eng.Grow(1024)
	for i := 0; i < 64; i++ { // populate the slot table
		eng.After(time.Microsecond, fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm := eng.After(time.Millisecond, fn)
		tm.Stop()
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Stop+Step allocated %.2f objects/op, want 0", allocs)
	}
}

// TestEveryTickZeroAllocs checks the periodic-tick path: after the one-off
// closure and slot lease at Every time, each tick re-push is free.
func TestEveryTickZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	eng.Grow(1024)
	ticks := 0
	tm := eng.Every(time.Second, func() { ticks++ })
	eng.Step() // prime the first tick
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Step()
	})
	tm.Stop()
	eng.Step()
	if allocs != 0 {
		t.Fatalf("Every tick allocated %.2f objects/op, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("ticked %d times, want >= 1000", ticks)
	}
}

// TestTimerSlotRecyclingIsGenerationSafe pins the ABA guard: a handle held
// across its timer's firing must not cancel the slot's next tenant.
func TestTimerSlotRecyclingIsGenerationSafe(t *testing.T) {
	eng := NewEngine(1)
	fired1, fired2 := false, false
	tm1 := eng.After(time.Millisecond, func() { fired1 = true })
	eng.Run()
	if !fired1 {
		t.Fatal("first timer did not fire")
	}
	// tm1's slot is free; the next After leases it with a bumped
	// generation. The stale Stop must be a no-op.
	tm2 := eng.After(time.Millisecond, func() { fired2 = true })
	tm1.Stop()
	eng.Run()
	if !fired2 {
		t.Fatal("stale Stop cancelled the slot's next tenant")
	}
	_ = tm2
}
