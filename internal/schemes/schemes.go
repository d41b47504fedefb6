// Package schemes implements the comparator power-management designs of
// Table 3, all topology-blind with respect to microservice criticality:
//
//	Baseline — no capping at all.
//	Capping  — peak power management from server utilization (uniform
//	           frequency chosen so the cluster fits the budget), after [14].
//	P-first  — fine-grained, high-power-as-first: repeatedly throttles the
//	           server drawing the most power until the budget holds.
//	T-first  — fine-grained, time-driven: slows the hosts of the fastest
//	           microservices first to meet the power constraint.
//
// ServiceFridge itself lives in internal/fridge; every scheme satisfies
// the same Scheme interface so the experiment engine can swap them.
package schemes

import (
	"sort"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
)

// Scheme is a power-management policy driven by a periodic control tick.
type Scheme interface {
	// Name identifies the scheme in reports (Table 3 naming).
	Name() string
	// Tick runs one control interval: observe and actuate.
	Tick()
}

// Context bundles the observability and actuation surface every scheme
// shares: the cluster (DVFS knobs), the power meter (turbostat), the
// budget, and the orchestrator (service placement lookup).
type Context struct {
	Cluster *cluster.Cluster
	Meter   *power.Meter
	// Budget is shared by reference: warm-started sweeps retarget the cap
	// between forked cells with Budget.SetFraction and every scheme sees
	// the new value on its next tick.
	Budget *power.Budget
	Orch   *orchestrator.Orchestrator
	// Rec, when non-nil, receives the controller's decision events (zone
	// splits, migrations, DVFS steps). A nil recorder disables recording;
	// obs.Recorder methods are nil-safe, so schemes emit unconditionally.
	Rec *obs.Recorder
}

// normLoad converts a measured utilization at frequency f into normalized
// work rate in FreqMax-core units: the same busy work needs f_max/f times
// the cores at frequency f.
func normLoad(u float64, f cluster.GHz) float64 {
	return u * float64(f) / float64(cluster.FreqMax)
}

// predictServer estimates a server's draw at frequency f carrying
// normalized load l.
func predictServer(m power.Model, l float64, f cluster.GHz) power.Watts {
	util := l * float64(cluster.FreqMax) / float64(f)
	if util > 1 {
		util = 1
	}
	return m.Power(f, util)
}

// serverLoads reads the meter's latest per-server samples and returns
// normalized loads. A server with a backlog (non-empty queue) is saturated
// regardless of its measured utilization at the current frequency — it
// would absorb all offered capacity at any P-state — so its load reads 1.
// Servers without a sample yet are also assumed fully loaded, the
// conservative choice for a peak-shaving controller.
func serverLoads(ctx *Context) map[string]float64 {
	out := make(map[string]float64, ctx.Cluster.Size())
	for _, s := range ctx.Cluster.Servers() {
		switch smp, ok := ctx.Meter.LastServer(s.Name()); {
		case s.QueueLen() > 0:
			out[s.Name()] = 1
		case ok:
			out[s.Name()] = normLoad(smp.Util, smp.Freq)
		default:
			out[s.Name()] = 1
		}
	}
	return out
}

// predictTotal estimates the cluster draw for a per-server frequency plan.
func predictTotal(ctx *Context, loads map[string]float64, freq func(*cluster.Server) cluster.GHz) power.Watts {
	var total power.Watts
	m := ctx.Meter.Model()
	for _, s := range ctx.Cluster.Servers() {
		total += predictServer(m, loads[s.Name()], freq(s))
	}
	return total
}

// Baseline performs no power limiting: every server stays at FreqMax.
type Baseline struct{ ctx *Context }

// NewBaseline returns the no-capping scheme.
func NewBaseline(ctx *Context) *Baseline { return &Baseline{ctx: ctx} }

// Name implements Scheme.
func (b *Baseline) Name() string { return "Baseline" }

// Tick implements Scheme: it pins everything at FreqMax.
func (b *Baseline) Tick() { b.ctx.Cluster.SetAllFreq(cluster.FreqMax) }

// Capping manages peak power from server utilization: each tick it picks
// the highest uniform frequency whose predicted cluster draw fits the
// budget. It is the representative server-level peak-shaving comparator.
type Capping struct{ ctx *Context }

// NewCapping returns the uniform utilization-based capper.
func NewCapping(ctx *Context) *Capping { return &Capping{ctx: ctx} }

// Name implements Scheme.
func (c *Capping) Name() string { return "Capping" }

// Tick implements Scheme.
func (c *Capping) Tick() {
	loads := serverLoads(c.ctx)
	cap := c.ctx.Budget.Cap()
	chosen := cluster.FreqMin
	states := cluster.PStates()
	for i := len(states) - 1; i >= 0; i-- {
		f := states[i]
		if predictTotal(c.ctx, loads, func(*cluster.Server) cluster.GHz { return f }) <= cap {
			chosen = f
			break
		}
	}
	c.ctx.Cluster.SetAllFreq(chosen)
}

// PFirst throttles the power-hungriest servers first: while the predicted
// draw exceeds the budget, the server with the highest current draw steps
// down one P-state; with headroom, the lowest-draw throttled server steps
// back up if it still fits.
type PFirst struct{ ctx *Context }

// NewPFirst returns the high-power-as-first scheme.
func NewPFirst(ctx *Context) *PFirst { return &PFirst{ctx: ctx} }

// Name implements Scheme.
func (p *PFirst) Name() string { return "P-first" }

// Tick implements Scheme.
func (p *PFirst) Tick() {
	ctx := p.ctx
	loads := serverLoads(ctx)
	cap := ctx.Budget.Cap()
	m := ctx.Meter.Model()
	plan := currentPlan(ctx)

	for guard := 0; guard < 13*ctx.Cluster.Size(); guard++ {
		if predictTotal(ctx, loads, planFreq(plan)) <= cap {
			break
		}
		// Highest predicted draw that can still step down.
		var victim *cluster.Server
		var worst power.Watts = -1
		for _, s := range ctx.Cluster.Servers() {
			f := plan[s.Name()]
			if f <= cluster.FreqMin {
				continue
			}
			if d := predictServer(m, loads[s.Name()], f); d > worst {
				worst = d
				victim = s
			}
		}
		if victim == nil {
			break
		}
		plan[victim.Name()] = cluster.StepDown(plan[victim.Name()])
	}
	raiseWithHeadroom(ctx, loads, plan)
	applyPlan(ctx, plan)
}

// TFirst slows the fastest microservices first (time-driven): services are
// ranked by profiled execution time ascending and their hosts step down in
// that order until the budget holds.
type TFirst struct {
	ctx *Context
	// order caches service names fastest-first.
	order []string
}

// NewTFirst returns the time-driven scheme. The spec supplies the offline
// execution-time profile.
func NewTFirst(ctx *Context, spec *app.Spec) *TFirst {
	t := &TFirst{ctx: ctx}
	type se struct {
		name string
		exec time.Duration
	}
	var xs []se
	for _, rn := range spec.RegionNames() {
		r := spec.Region(rn)
		for _, c := range r.Calls() {
			xs = append(xs, se{c.Service, c.Exec})
		}
	}
	// Keep the fastest profile per service.
	best := map[string]time.Duration{}
	for _, x := range xs {
		if b, ok := best[x.name]; !ok || x.exec < b {
			best[x.name] = x.exec
		}
	}
	for name := range best {
		t.order = append(t.order, name)
	}
	sort.Slice(t.order, func(i, j int) bool {
		if best[t.order[i]] != best[t.order[j]] {
			return best[t.order[i]] < best[t.order[j]]
		}
		return t.order[i] < t.order[j]
	})
	return t
}

// Name implements Scheme.
func (t *TFirst) Name() string { return "T-first" }

// Tick implements Scheme.
func (t *TFirst) Tick() {
	ctx := t.ctx
	loads := serverLoads(ctx)
	cap := ctx.Budget.Cap()
	plan := currentPlan(ctx)

	for guard := 0; guard < 13*len(t.order)+13*ctx.Cluster.Size(); guard++ {
		if predictTotal(ctx, loads, planFreq(plan)) <= cap {
			break
		}
		stepped := false
		for _, svc := range t.order {
			for _, n := range ctx.Orch.NodesOf(svc) {
				if plan[n.Name()] > cluster.FreqMin {
					plan[n.Name()] = cluster.StepDown(plan[n.Name()])
					stepped = true
					break
				}
			}
			if stepped {
				break
			}
		}
		if !stepped {
			// No service host can step down further; throttle anything left.
			for _, s := range ctx.Cluster.Servers() {
				if plan[s.Name()] > cluster.FreqMin {
					plan[s.Name()] = cluster.StepDown(plan[s.Name()])
					stepped = true
					break
				}
			}
			if !stepped {
				break
			}
		}
	}
	raiseWithHeadroom(ctx, loads, plan)
	applyPlan(ctx, plan)
}

// currentPlan snapshots the cluster's frequencies.
func currentPlan(ctx *Context) map[string]cluster.GHz {
	plan := make(map[string]cluster.GHz, ctx.Cluster.Size())
	for _, s := range ctx.Cluster.Servers() {
		plan[s.Name()] = s.Freq()
	}
	return plan
}

func planFreq(plan map[string]cluster.GHz) func(*cluster.Server) cluster.GHz {
	return func(s *cluster.Server) cluster.GHz { return plan[s.Name()] }
}

// raiseWithHeadroom steps throttled servers back up while the prediction
// stays under the cap, so schemes recover when load falls.
func raiseWithHeadroom(ctx *Context, loads map[string]float64, plan map[string]cluster.GHz) {
	for guard := 0; guard < 13*ctx.Cluster.Size(); guard++ {
		raised := false
		for _, s := range ctx.Cluster.Servers() {
			f := plan[s.Name()]
			if f >= cluster.FreqMax {
				continue
			}
			plan[s.Name()] = cluster.StepUp(f)
			if predictTotal(ctx, loads, planFreq(plan)) <= ctx.Budget.Cap() {
				raised = true
			} else {
				plan[s.Name()] = f
			}
		}
		if !raised {
			return
		}
	}
}

// applyPlan actuates the frequency plan.
func applyPlan(ctx *Context, plan map[string]cluster.GHz) {
	for _, s := range ctx.Cluster.Servers() {
		s.SetFreq(plan[s.Name()])
	}
}
