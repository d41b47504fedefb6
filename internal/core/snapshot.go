package core

// CounterState is a snapshot of the indegree counters: a deep copy of the
// live counts.
type CounterState struct {
	pending map[string]float64
}

// Snapshot captures the counter's state.
func (c *Counter) Snapshot() *CounterState {
	return &CounterState{pending: copyCounts(c.pending)}
}

// Restore rewinds the counter to the snapshot.
func (c *Counter) Restore(s *CounterState) {
	restoreCounts(c.pending, s.pending)
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
