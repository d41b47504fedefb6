package core

import (
	"math"
	"testing"
	"testing/quick"

	"servicefridge/internal/sim"
)

func TestCounterObserveComplete(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Observe("A")
	c.Observe("A")
	c.Observe("B")
	// ticketinfo is in both regions: 3 edges. seat only in A: 2.
	if c.Pending("ticketinfo") != 3 {
		t.Fatalf("pending[ticketinfo] = %v, want 3", c.Pending("ticketinfo"))
	}
	if c.Pending("seat") != 2 {
		t.Fatalf("pending[seat] = %v, want 2", c.Pending("seat"))
	}
	// Total: 2 A-requests x 8 edges + 1 B-request x 4 edges = 20.
	if c.Total() != 20 {
		t.Fatalf("total = %v, want 20", c.Total())
	}
	c.Complete("A")
	if c.Pending("ticketinfo") != 2 || c.Total() != 12 {
		t.Fatalf("after complete: ticketinfo=%v total=%v", c.Pending("ticketinfo"), c.Total())
	}
}

func TestCounterSharesSumToOne(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Observe("A")
	c.Observe("B")
	shares := c.Shares()
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum = %v, want 1", sum)
	}
	// ticketinfo: 2 edges of 12 total.
	if math.Abs(shares["ticketinfo"]-2.0/12.0) > 1e-9 {
		t.Fatalf("share[ticketinfo] = %v", shares["ticketinfo"])
	}
}

func TestCounterEmptyShares(t *testing.T) {
	c := NewCounter(studyGraph())
	if len(c.Shares()) != 0 {
		t.Fatal("no load should yield empty shares")
	}
}

func TestCounterClampAtZero(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Complete("A") // unmatched
	if c.Total() != 0 {
		t.Fatalf("total went negative: %v", c.Total())
	}
	c.Observe("A")
	c.Complete("A")
	c.Complete("A")
	if c.Total() != 0 {
		t.Fatalf("double complete corrupted counts: %v", c.Total())
	}
}

func TestCounterUnknownRegionIgnored(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Observe("nope")
	c.Complete("nope")
	if c.Total() != 0 {
		t.Fatal("unknown region affected counts")
	}
}

func TestCounterSlots(t *testing.T) {
	// Figure 10: slot counters = carry-over + arrivals - completions.
	c := NewCounter(studyGraph())
	c.Observe("A")
	c.Observe("A")
	s1 := c.Advance()
	if s1.Arrivals["ticketinfo"] != 2 || s1.Pending["ticketinfo"] != 2 {
		t.Fatalf("slot1 = %+v", s1)
	}
	c.Observe("B")
	c.Complete("A")
	s2 := c.Advance()
	if s2.Arrivals["ticketinfo"] != 1 || s2.Completions["ticketinfo"] != 1 {
		t.Fatalf("slot2 arrivals/completions wrong: %+v", s2)
	}
	// Carry-over: 2 (slot1) + 1 (B arrival) - 1 (A completion) = 2.
	if s2.Pending["ticketinfo"] != 2 {
		t.Fatalf("slot2 pending[ticketinfo] = %v, want 2", s2.Pending["ticketinfo"])
	}
	// A returned Slot is frozen: later slots do not rewrite it.
	if s1.Arrivals["ticketinfo"] != 2 || s1.Pending["ticketinfo"] != 2 {
		t.Fatalf("slot1 changed after the next Advance: %+v", s1)
	}
}

func TestRegionLoadRecovery(t *testing.T) {
	c := NewCounter(studyGraph())
	for i := 0; i < 30; i++ {
		c.Observe("A")
	}
	for i := 0; i < 20; i++ {
		c.Observe("B")
	}
	load := c.RegionLoad()
	if math.Abs(load["A"]-30) > 1e-9 {
		t.Fatalf("load[A] = %v, want 30", load["A"])
	}
	if math.Abs(load["B"]-20) > 1e-9 {
		t.Fatalf("load[B] = %v, want 20", load["B"])
	}
}

func TestRegionLoadPureB(t *testing.T) {
	c := NewCounter(studyGraph())
	for i := 0; i < 10; i++ {
		c.Observe("B")
	}
	load := c.RegionLoad()
	if load["A"] != 0 {
		t.Fatalf("load[A] = %v, want 0", load["A"])
	}
	if math.Abs(load["B"]-10) > 1e-9 {
		t.Fatalf("load[B] = %v, want 10", load["B"])
	}
}

// TestCounterSlotConservation pins the Figure 10 slot identity under
// matched traffic (every Complete follows an earlier Observe): for every
// closed slot and every service,
//
//	Pending(close) = Pending(open) + Arrivals − Completions.
func TestCounterSlotConservation(t *testing.T) {
	c := NewCounter(studyGraph())
	r := sim.NewRNG(7)
	open := map[string]int{"A": 0, "B": 0}
	prev := map[string]float64{}
	for slot := 0; slot < 25; slot++ {
		for op := 0; op < 40; op++ {
			region := "A"
			if r.Intn(2) == 0 {
				region = "B"
			}
			if open[region] == 0 || r.Intn(3) > 0 {
				c.Observe(region)
				open[region]++
			} else {
				c.Complete(region)
				open[region]--
			}
		}
		s := c.Advance()
		seen := map[string]bool{}
		for _, m := range []map[string]float64{s.Arrivals, s.Completions, s.Pending, prev} {
			for svc := range m {
				seen[svc] = true
			}
		}
		for svc := range seen {
			want := prev[svc] + s.Arrivals[svc] - s.Completions[svc]
			if s.Pending[svc] != want {
				t.Fatalf("slot %d, %s: pending(close) = %v, want pending(open) %v + arrivals %v - completions %v = %v",
					slot, svc, s.Pending[svc], prev[svc], s.Arrivals[svc], s.Completions[svc], want)
			}
		}
		prev = s.Pending
	}
}

// TestCounterUnmatchedCompleteAsymmetry pins the documented asymmetry in
// Complete: pending clamps at zero on an unmatched completion, but the
// slot history still records it — so the slot identity deliberately
// over-counts completions in that (erroneous) case, rather than letting a
// stray Complete corrupt the live shares.
func TestCounterUnmatchedCompleteAsymmetry(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Complete("A") // unmatched: nothing was observed
	s := c.Advance()
	if c.Pending("ticketinfo") != 0 {
		t.Fatalf("pending[ticketinfo] = %v, must clamp at zero", c.Pending("ticketinfo"))
	}
	if s.Pending["ticketinfo"] != 0 {
		t.Fatalf("slot pending[ticketinfo] = %v, must clamp at zero", s.Pending["ticketinfo"])
	}
	if s.Completions["ticketinfo"] != 1 {
		t.Fatalf("slot completions[ticketinfo] = %v, want 1 (unmatched completes still counted)",
			s.Completions["ticketinfo"])
	}
	// The identity is violated by exactly the clamped amount: 0 != 0 - 1.
	if got, naive := s.Pending["ticketinfo"], -s.Completions["ticketinfo"]; got == naive {
		t.Fatalf("clamp should break the naive identity, got %v == %v", got, naive)
	}
}

// Property: for any interleaving of observes and completes, pending counts
// never go negative and shares stay normalized.
func TestCounterInvariantProperty(t *testing.T) {
	f := func(seed uint64, ops []bool) bool {
		c := NewCounter(studyGraph())
		r := sim.NewRNG(seed)
		open := 0
		for _, observe := range ops {
			region := "A"
			if r.Intn(2) == 0 {
				region = "B"
			}
			if observe || open == 0 {
				c.Observe(region)
				open++
			} else {
				c.Complete(region)
				open--
			}
			if c.Total() < 0 {
				return false
			}
			shares := c.Shares()
			var sum float64
			for _, v := range shares {
				if v < 0 {
					return false
				}
				sum += v
			}
			if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
