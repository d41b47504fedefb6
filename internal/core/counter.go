package core

// This file implements the dynamic half of MCF: the per-vertex indegree
// counters of Figure 10. Each function-service vertex counts its live
// request-access edges. Figure 10 updates the count once per time slot:
// the carry-over (requests still in flight) plus the edges of requests
// arriving in the slot, minus the edges completed (the Ψ terms). Here each
// arrival and completion is folded into the live count as it happens, so
// the count at any slot boundary is the same and no per-slot deltas are
// kept: MCF reads only the live counts (Equation 3).

// Counter maintains live indegree counts per function service.
type Counter struct {
	g *Graph
	// pending[s] is the number of live request-access edges into s.
	pending map[string]float64
}

// NewCounter creates zeroed counters over the graph's services.
func NewCounter(g *Graph) *Counter {
	return &Counter{g: g, pending: make(map[string]float64)}
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
