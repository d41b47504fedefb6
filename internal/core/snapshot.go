package core

// CounterState is a snapshot of the indegree counters: deep copies of the
// live accumulator maps.
type CounterState struct {
	pending         map[string]float64
	slotArrivals    map[string]float64
	slotCompletions map[string]float64
}

// Snapshot captures the counter's state.
func (c *Counter) Snapshot() *CounterState {
	return &CounterState{
		pending:         copyCounts(c.pending),
		slotArrivals:    copyCounts(c.slotArrivals),
		slotCompletions: copyCounts(c.slotCompletions),
	}
}

// Restore rewinds the counter to the snapshot.
func (c *Counter) Restore(s *CounterState) {
	restoreCounts(c.pending, s.pending)
	restoreCounts(c.slotArrivals, s.slotArrivals)
	restoreCounts(c.slotCompletions, s.slotCompletions)
}

func copyCounts(m map[string]float64) map[string]float64 {
	cp := make(map[string]float64, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

func restoreCounts(dst, src map[string]float64) {
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
}
