package sim

import (
	"testing"
	"time"
)

// laneObs is one observation of a lane-equivalence program: a handler run
// (id >= 0) or the state after a driver operation (id == -1).
type laneObs struct {
	id        int
	now       Time
	pending   int
	processed uint64
}

// laneProgram runs a seeded random program on a fresh engine. With lane
// set, its FIFO calls go through ScheduleFIFO; without it, through
// Schedule. It returns every observation, plus how many FIFO calls landed
// on the lane and how many fell back to the heap.
func laneProgram(seed uint64, lane bool) (obs []laneObs, laned, fellBack int) {
	eng := NewEngine(seed)
	drv := NewRNG(seed ^ 0x9e3779b97f4a7c15) // the driver's choices; never rewound
	const hop = 100 * time.Microsecond
	step := func() time.Duration { return time.Duration(drv.Intn(8)) * 50 * time.Microsecond }

	fifo := func(d time.Duration, fn Handler) {
		if !lane {
			eng.Schedule(d, fn)
			return
		}
		before := len(eng.events)
		eng.ScheduleFIFO(d, fn)
		if len(eng.events) > before {
			fellBack++
		} else {
			laned++
		}
	}
	record := func(id int) {
		obs = append(obs, laneObs{id, eng.Now(), eng.Pending(), eng.Processed()})
	}

	// Handlers draw their children from the engine's root RNG, which
	// Restore rewinds, so a restored run replays the same choices. Fewer
	// than one child per handler on average keeps the population finite.
	next := 0
	var spawn func() Handler
	spawn = func() Handler {
		id := next
		next++
		return func() {
			record(id)
			r := eng.RNG()
			switch r.Intn(5) {
			case 0, 1:
				fifo(hop, spawn())
			case 2:
				fifo(time.Duration(r.Intn(4))*50*time.Microsecond, spawn())
			case 3:
				eng.Schedule(time.Duration(r.Intn(8))*50*time.Microsecond, spawn())
			}
		}
	}

	var timers []Timer
	var snap *EngineState
	for op := 0; op < 1500; op++ {
		switch drv.Intn(12) {
		case 0, 1, 2:
			fifo(hop, spawn())
		case 3:
			fifo(step(), spawn()) // usually out of order: falls back to the heap
		case 4:
			eng.Schedule(step(), spawn())
		case 5:
			eng.ScheduleAt(eng.Now().Add(step()), spawn())
		case 6:
			timers = append(timers, eng.After(step(), spawn()))
		case 7:
			if len(timers) > 0 {
				timers[drv.Intn(len(timers))].Stop()
			}
		case 8:
			id, stopAt := next, eng.Now().Add(4*step())
			next++
			var tm Timer
			tm = eng.Every(hop/2+step(), func() {
				record(id)
				if eng.Now() >= stopAt {
					tm.Stop()
				}
			})
		case 9:
			if snap == nil || drv.Intn(2) == 0 {
				snap = eng.Snapshot()
			} else {
				eng.Restore(snap)
			}
		case 10:
			eng.RunUntil(eng.Now().Add(step()))
		default:
			for k := drv.Intn(4); k > 0; k-- {
				eng.Step()
			}
		}
		record(-1)
	}
	eng.Run()
	record(-1)
	return obs, laned, fellBack
}

// TestFIFOLaneMatchesHeap pins the lane to the heap: the same random
// program — Schedule, ScheduleAt, After and Stop, Every, in-order and
// out-of-order ScheduleFIFO calls, and mid-run Snapshot/Restore — must
// run identically whether its FIFO calls use the lane or the heap: the
// same handlers in the same order, with the same Now, Pending and
// Processed at every step.
func TestFIFOLaneMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		got, laned, fellBack := laneProgram(seed, true)
		want, _, _ := laneProgram(seed, false)
		if laned == 0 || fellBack == 0 {
			t.Fatalf("seed %d: %d lane appends and %d heap fallbacks; the program must exercise both", seed, laned, fellBack)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations with the lane, %d without", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, observation %d: lane %+v, heap %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleFIFOStepZeroAllocs: once the lane has grown to its working
// size, a ScheduleFIFO+Step cycle allocates nothing.
func TestScheduleFIFOStepZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := Handler(func() {})
	for i := 0; i < 1024; i++ {
		eng.ScheduleFIFO(time.Millisecond, fn)
		eng.Step()
		eng.ScheduleFIFO(time.Millisecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleFIFO(time.Millisecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleFIFO+Step allocated %.2f objects/op, want 0", allocs)
	}
}
