package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// TestRestoreRingSizedToRun pins Snapshot/Restore on a sample ring that
// Bind sized to the run's end and that grows, then wraps, past it. A run
// that detours — samples ticks with the controller probe ready, growing or
// wrapping the ring — and restores must go on to hold exactly the rows of
// a run that never detoured: no row the detour wrote, and no field of one,
// survives the restore.
func TestRestoreRingSizedToRun(t *testing.T) {
	opt := Options{Capacity: 8}
	const end = 3 * time.Second // presizes 4 rows
	feed := func(h *harness, k int) {
		h.tel.ObserveResponse("A", time.Duration(20+k)*time.Millisecond)
		h.tel.ObserveServiceExec("route", time.Duration(1+k%3)*time.Millisecond)
		h.tick()
	}
	for _, c := range []struct {
		end  time.Duration
		rows int
	}{{end, 4}, {0, opt.Capacity}, {time.Hour, opt.Capacity}} {
		if got := len(bindHarness(t, opt, nil, c.end).tel.samples); got != c.rows {
			t.Fatalf("Bind with end %v presized %d rows, want %d", c.end, got, c.rows)
		}
	}
	// Snapshot before the ring grows, and after it has wrapped.
	for _, at := range []int{2, 10} {
		ref := bindHarness(t, opt, &fakeProbe{}, end)
		for k := 0; k < at+6; k++ {
			feed(ref, k)
		}

		probe := &fakeProbe{
			zoneW: [3]float64{80, 60, 110}, zoneGHz: [3]float64{1.2, 1.8, 2.4},
			mcf: map[string]float64{"route": 0.5, "ticketinfo": 0.25},
		}
		h := bindHarness(t, opt, probe, end)
		for k := 0; k < at; k++ {
			feed(h, k)
		}
		snap, now := h.tel.Snapshot(), h.now
		probe.ready = true
		for k := 0; k < 7; k++ {
			feed(h, 100+k)
		}
		h.tel.Restore(snap)
		h.now, probe.ready = now, false
		for k := at; k < at+6; k++ {
			feed(h, k)
		}

		got, want := h.tel.Samples(), ref.tel.Samples()
		if len(got) != len(want) {
			t.Fatalf("snapshot at %d: %d rows after the detour, want %d", at, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("snapshot at %d: row %d after the detour\n%+v\nwant\n%+v", at, i, got[i], want[i])
			}
		}
	}
}
