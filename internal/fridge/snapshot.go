package fridge

import (
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
)

// State is a deep copy of the controller's mutable state: the Algorithm-1
// adjustments, last-tick zone assignment and frequencies, the cached MCF
// map (reused in place every tick, so it must be copied) and the indegree
// counters.
type State struct {
	alpha, beta     float64
	loadOverride    map[string]float64
	migrateServices bool
	adjust          map[string]int
	adjustBase      map[string]core.Criticality
	baseLevels      map[string]core.Criticality
	zoneServers     map[Zone][]*cluster.Server
	zoneFreq        map[Zone]cluster.GHz
	levels          map[string]core.Criticality
	lastMCF         map[string]float64
	hasMCF          bool
	zoneDemand      map[Zone]float64
	demandTotal     float64
	promotions      uint64
	demotions       uint64
	counter         *core.CounterState
}

// Snapshot captures the controller's state.
func (f *Fridge) Snapshot() *State {
	s := &State{
		alpha:           f.Alpha,
		beta:            f.Beta,
		loadOverride:    f.LoadOverride,
		migrateServices: f.MigrateServices,
		adjust:          make(map[string]int, len(f.adjust)),
		adjustBase:      make(map[string]core.Criticality, len(f.adjustBase)),
		baseLevels:      make(map[string]core.Criticality, len(f.baseLevels)),
		zoneServers:     make(map[Zone][]*cluster.Server, len(f.zoneServers)),
		zoneFreq:        make(map[Zone]cluster.GHz, len(f.zoneFreq)),
		levels:          make(map[string]core.Criticality, len(f.levels)),
		lastMCF:         make(map[string]float64, len(f.lastMCF)),
		hasMCF:          f.hasMCF,
		zoneDemand:      make(map[Zone]float64, len(f.zoneDemand)),
		demandTotal:     f.demandTotal,
		promotions:      f.promotions,
		demotions:       f.demotions,
		counter:         f.counter.Snapshot(),
	}
	for k, v := range f.adjust {
		s.adjust[k] = v
	}
	for k, v := range f.adjustBase {
		s.adjustBase[k] = v
	}
	for k, v := range f.baseLevels {
		s.baseLevels[k] = v
	}
	for z, list := range f.zoneServers {
		s.zoneServers[z] = append([]*cluster.Server(nil), list...)
	}
	for z, g := range f.zoneFreq {
		s.zoneFreq[z] = g
	}
	for k, v := range f.levels {
		s.levels[k] = v
	}
	for k, v := range f.lastMCF {
		s.lastMCF[k] = v
	}
	for z, d := range f.zoneDemand {
		s.zoneDemand[z] = d
	}
	return s
}

// Restore rewinds the controller to the snapshot. LoadOverride is restored
// by reference (experiment cells treat it as an input, not state); warm
// sweeps overwrite it per cell after restoring.
func (f *Fridge) Restore(s *State) {
	f.Alpha, f.Beta = s.alpha, s.beta
	f.LoadOverride = s.loadOverride
	f.MigrateServices = s.migrateServices
	clear(f.adjust)
	for k, v := range s.adjust {
		f.adjust[k] = v
	}
	clear(f.adjustBase)
	for k, v := range s.adjustBase {
		f.adjustBase[k] = v
	}
	f.baseLevels = make(map[string]core.Criticality, len(s.baseLevels))
	for k, v := range s.baseLevels {
		f.baseLevels[k] = v
	}
	f.zoneServers = make(map[Zone][]*cluster.Server, len(s.zoneServers))
	for z, list := range s.zoneServers {
		f.zoneServers[z] = append([]*cluster.Server(nil), list...)
	}
	for z, g := range s.zoneFreq {
		f.zoneFreq[z] = g
	}
	f.levels = make(map[string]core.Criticality, len(s.levels))
	for k, v := range s.levels {
		f.levels[k] = v
	}
	clear(f.lastMCF)
	if f.lastMCF == nil && len(s.lastMCF) > 0 {
		f.lastMCF = make(map[string]float64, len(s.lastMCF))
	}
	for k, v := range s.lastMCF {
		f.lastMCF[k] = v
	}
	f.hasMCF = s.hasMCF
	f.zoneDemand = make(map[Zone]float64, len(s.zoneDemand))
	for z, d := range s.zoneDemand {
		f.zoneDemand[z] = d
	}
	f.demandTotal = s.demandTotal
	f.promotions = s.promotions
	f.demotions = s.demotions
	f.counter.Restore(s.counter)
}
