package power

import (
	"sort"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// Sample is one meter reading for one server over one sampling window.
type Sample struct {
	At    sim.Time
	Freq  cluster.GHz
	Util  float64
	Power Watts
	// ByTag splits the dynamic component across the microservices that
	// kept the server busy in the window, proportionally to their busy
	// core time — the per-service power attribution behind Figure 13.
	ByTag map[string]Watts
}

// ClusterSample aggregates one window across all servers.
type ClusterSample struct {
	At      sim.Time
	Total   Watts
	Dynamic Watts
	Util    float64 // capacity-weighted mean utilization
}

// Meter periodically samples every server of a cluster, exactly as the
// paper polls turbostat. Start it once; readings accumulate until the run
// ends. Sampling is passive: it never perturbs the cluster.
type Meter struct {
	eng      *sim.Engine
	cl       *cluster.Cluster
	model    Model
	interval time.Duration

	// Rec, when non-nil, receives one cluster-wide PowerSample event per
	// sampling window (zone "cluster"). BudgetFn supplies the admissible
	// draw recorded alongside; nil records a zero budget.
	Rec      *obs.Recorder
	BudgetFn func() Watts

	lastBusy    map[string]time.Duration
	lastBusyTag map[string]map[string]time.Duration
	lastAt      sim.Time

	samples []Sample
	totals  []ClusterSample
	last    map[string]Sample
	started bool
}

// NewMeter creates a meter over cl using model, sampling every interval.
func NewMeter(cl *cluster.Cluster, model Model, interval time.Duration) *Meter {
	if interval <= 0 {
		interval = time.Second
	}
	return &Meter{
		eng:         cl.Engine(),
		cl:          cl,
		model:       model,
		interval:    interval,
		lastBusy:    make(map[string]time.Duration),
		lastBusyTag: make(map[string]map[string]time.Duration),
		last:        make(map[string]Sample),
	}
}

// Model returns the power model in use.
func (m *Meter) Model() Model { return m.model }

// Start begins periodic sampling. Calling Start twice is a no-op.
func (m *Meter) Start() {
	if m.started {
		return
	}
	m.started = true
	m.lastAt = m.eng.Now()
	for _, s := range m.cl.Servers() {
		m.lastBusy[s.Name()] = s.BusyCoreTime()
		m.lastBusyTag[s.Name()] = map[string]time.Duration{}
		for _, tag := range s.Tags() {
			m.lastBusyTag[s.Name()][tag] = s.BusyCoreTimeByTag(tag)
		}
	}
	m.eng.Every(m.interval, m.sample)
}

func (m *Meter) sample() {
	now := m.eng.Now()
	window := now.Sub(m.lastAt)
	if window <= 0 {
		return
	}
	var total, dynamic Watts
	var utilSum float64
	var coreSum int
	for _, s := range m.cl.Servers() {
		name := s.Name()
		busy := s.BusyCoreTime()
		delta := busy - m.lastBusy[name]
		m.lastBusy[name] = busy
		u := cluster.Utilization(delta, s.Cores(), window)
		p := m.model.Power(s.Freq(), u)
		dyn := p - m.model.Idle

		byTag := map[string]Watts{}
		prevTags := m.lastBusyTag[name]
		if prevTags == nil {
			prevTags = map[string]time.Duration{}
			m.lastBusyTag[name] = prevTags
		}
		if delta > 0 && dyn > 0 {
			for _, tag := range s.Tags() {
				cum := s.BusyCoreTimeByTag(tag)
				td := cum - prevTags[tag]
				prevTags[tag] = cum
				if td > 0 {
					byTag[tag] = dyn * Watts(float64(td)/float64(delta))
				}
			}
		} else {
			for _, tag := range s.Tags() {
				prevTags[tag] = s.BusyCoreTimeByTag(tag)
			}
		}

		sample := Sample{At: now, Freq: s.Freq(), Util: u, Power: p, ByTag: byTag}
		m.samples = append(m.samples, sample)
		m.last[name] = sample
		total += p
		dynamic += dyn
		utilSum += u * float64(s.Cores())
		coreSum += s.Cores()
	}
	cs := ClusterSample{At: now, Total: total, Dynamic: dynamic}
	if coreSum > 0 {
		cs.Util = utilSum / float64(coreSum)
	}
	m.totals = append(m.totals, cs)
	m.lastAt = now
	if m.Rec != nil {
		var budget Watts
		if m.BudgetFn != nil {
			budget = m.BudgetFn()
		}
		m.Rec.Emit(now, obs.PowerSample{
			Zone: "cluster", Watts: float64(total), Budget: float64(budget),
		})
	}
}

// Samples returns all per-server readings in time order.
func (m *Meter) Samples() []Sample { return m.samples }

// ClusterSamples returns all whole-cluster readings in time order.
func (m *Meter) ClusterSamples() []ClusterSample { return m.totals }

// LastCluster returns the most recent whole-cluster reading and true, or a
// zero sample and false before the first window closes.
func (m *Meter) LastCluster() (ClusterSample, bool) {
	if len(m.totals) == 0 {
		return ClusterSample{}, false
	}
	return m.totals[len(m.totals)-1], true
}

// LastServer returns the most recent reading for the named server and
// true, or a zero sample and false before the first window closes.
func (m *Meter) LastServer(name string) (Sample, bool) {
	s, ok := m.last[name]
	return s, ok
}

// TagPowerSeries returns, per sampling instant, the dynamic power
// attributed to tag summed over all servers (the Figure 13 power traces).
func (m *Meter) TagPowerSeries(tag string) []TagPoint {
	byAt := map[sim.Time]Watts{}
	var order []sim.Time
	for _, s := range m.samples {
		if _, seen := byAt[s.At]; !seen {
			order = append(order, s.At)
		}
		byAt[s.At] += s.ByTag[tag]
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]TagPoint, len(order))
	for i, at := range order {
		out[i] = TagPoint{At: at, Power: byAt[at]}
	}
	return out
}

// TagPoint is one point of a per-service power series.
type TagPoint struct {
	At    sim.Time
	Power Watts
}

// MeanDynamic returns the average cluster dynamic power over all windows.
func (m *Meter) MeanDynamic() Watts {
	if len(m.totals) == 0 {
		return 0
	}
	var sum Watts
	for _, c := range m.totals {
		sum += c.Dynamic
	}
	return sum / Watts(len(m.totals))
}

// PeakDynamic returns the maximum cluster dynamic power over all windows.
func (m *Meter) PeakDynamic() Watts {
	var peak Watts
	for _, c := range m.totals {
		if c.Dynamic > peak {
			peak = c.Dynamic
		}
	}
	return peak
}

// PeakTotal returns the maximum whole-cluster draw over all windows — the
// measured maximum required power of an uncapped run.
func (m *Meter) PeakTotal() Watts {
	var peak Watts
	for _, c := range m.totals {
		if c.Total > peak {
			peak = c.Total
		}
	}
	return peak
}

// DynamicRange returns max−min cluster dynamic power across windows — the
// "dynamic power range" whose 25% reduction is the paper's headline.
func (m *Meter) DynamicRange() Watts {
	if len(m.totals) == 0 {
		return 0
	}
	lo, hi := m.totals[0].Dynamic, m.totals[0].Dynamic
	for _, c := range m.totals {
		if c.Dynamic < lo {
			lo = c.Dynamic
		}
		if c.Dynamic > hi {
			hi = c.Dynamic
		}
	}
	return hi - lo
}
