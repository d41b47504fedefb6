package core

// This file implements the dynamic half of MCF: the per-vertex indegree
// counters of Figure 10. Each function-service vertex counts its live
// request-access edges; the count at a time slot is the carry-over from
// the previous slot (requests still in flight) plus the edges of requests
// arriving in the current slot, minus the edges completed (the Ψ terms of
// Figure 10).

// Counter maintains live indegree counts per function service.
type Counter struct {
	g *Graph
	// pending[s] is the number of live request-access edges into s.
	pending map[string]float64
	// arrivals/completions accumulate within the current slot.
	slotArrivals    map[string]float64
	slotCompletions map[string]float64
}

// Slot is the recorded state of one closed time slot.
type Slot struct {
	// Arrivals and Completions are the per-service edge deltas in the
	// slot; Pending is the live count at slot close.
	Arrivals, Completions, Pending map[string]float64
}

// NewCounter creates zeroed counters over the graph's services.
func NewCounter(g *Graph) *Counter {
	c := &Counter{
		g:               g,
		pending:         make(map[string]float64),
		slotArrivals:    make(map[string]float64),
		slotCompletions: make(map[string]float64),
	}
	return c
}

// Observe records the arrival of one request to region: every service the
// region calls gains one pending edge.
func (c *Counter) Observe(region string) {
	r := c.g.spec.Region(region)
	if r == nil {
		return
	}
	for _, sn := range r.ServiceNames() {
		c.pending[sn]++
		c.slotArrivals[sn]++
	}
}

// Complete records the completion of one request to region: its edges are
// retired (the red-circled Ψ terms of Figure 10). Counts clamp at zero so
// an unmatched Complete cannot corrupt the shares.
func (c *Counter) Complete(region string) {
	r := c.g.spec.Region(region)
	if r == nil {
		return
	}
	for _, sn := range r.ServiceNames() {
		if c.pending[sn] > 0 {
			c.pending[sn]--
		}
		c.slotCompletions[sn]++
	}
}

// Pending returns the live edge count for service.
func (c *Counter) Pending(service string) float64 { return c.pending[service] }

// Total returns the total live edge count across all services.
func (c *Counter) Total() float64 {
	var t float64
	for _, v := range c.pending {
		t += v
	}
	return t
}

// Shares returns In_i = res_i / Σ_j res_j for every service with live
// edges (Equation 3). With no live edges it returns an empty map.
func (c *Counter) Shares() map[string]float64 {
	total := c.Total()
	out := make(map[string]float64, len(c.pending))
	if total == 0 {
		return out
	}
	for s, v := range c.pending {
		if v > 0 {
			out[s] = v / total
		}
	}
	return out
}

// RegionLoad estimates per-region live request counts from the pending
// edges, by solving the (overdetermined) counts against region membership
// greedily: services called by exactly one region attribute their pending
// count to it. It feeds the MCF calculator's load parameter during
// operation.
func (c *Counter) RegionLoad() map[string]float64 {
	load := map[string]float64{}
	counts := map[string]int{}
	for _, rn := range c.g.spec.RegionNames() {
		r := c.g.spec.Region(rn)
		var unique []string
		for _, sn := range r.ServiceNames() {
			if len(c.g.Edges(sn)) == 1 {
				unique = append(unique, sn)
			}
		}
		if len(unique) > 0 {
			var sum float64
			for _, sn := range unique {
				sum += c.pending[sn]
			}
			load[rn] = sum / float64(len(unique))
			counts[rn] = len(unique)
		}
	}
	// Regions with no unique service: attribute the residual of a shared
	// service evenly.
	for _, rn := range c.g.spec.RegionNames() {
		if _, done := load[rn]; done {
			continue
		}
		r := c.g.spec.Region(rn)
		var best float64
		for _, sn := range r.ServiceNames() {
			residual := c.pending[sn]
			for _, e := range c.g.Edges(sn) {
				if e.Region != rn {
					residual -= load[e.Region]
				}
			}
			if residual > best {
				best = residual
			}
		}
		if best > 0 {
			load[rn] = best
		}
	}
	return load
}

// Advance closes the current slot, returning its arrivals, completions and
// final pending counts, and opens a new one.
func (c *Counter) Advance() Slot {
	snap := Slot{
		Arrivals:    c.slotArrivals,
		Completions: c.slotCompletions,
		Pending:     make(map[string]float64, len(c.pending)),
	}
	for s, v := range c.pending {
		snap.Pending[s] = v
	}
	c.slotArrivals = make(map[string]float64)
	c.slotCompletions = make(map[string]float64)
	return snap
}
