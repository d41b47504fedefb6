package app

import (
	"math"
	"time"

	"servicefridge/internal/sim"
)

// callPlan is one call of a region resolved when the region is registered:
// the callee's profile, how many invocations to issue and how many to keep
// in flight, and the parameters of each invocation's demand draw. The
// region's API-layer job is a callPlan with one invocation.
type callPlan struct {
	ms    *Microservice
	times int
	conc  int // Concurrency clamped to [1, times]
	mean  time.Duration
	// logNormal is set when invocations draw their demand from a
	// log-normal of mean mean and relative spread ms.Jitter, whose
	// underlying normal is N(mu, sigma); otherwise every invocation
	// demands exactly mean.
	logNormal bool
	mu, sigma float64
}

func newCallPlan(ms *Microservice, times, conc int, mean time.Duration) callPlan {
	p := callPlan{ms: ms, times: times, conc: min(max(conc, 1), times), mean: mean}
	// sim.RNG.LogNormal with this mean and stddev returns 0 for a zero
	// mean without drawing; a zero mean demands exactly mean either way.
	if ms.Jitter > 0 && mean > 0 {
		p.logNormal = true
		p.mu, p.sigma = sim.LogNormalParams(float64(mean), ms.Jitter*float64(mean))
	}
	return p
}

// demand draws one invocation's service demand: the same bits
// rng.LogNormal(mean, Jitter*mean) would return, without re-deriving μ
// and σ.
func (p *callPlan) demand(rng *sim.RNG) time.Duration {
	if !p.logNormal {
		return p.mean
	}
	return time.Duration(math.Exp(rng.Norm(p.mu, p.sigma)))
}

// resolve computes r's call plan and distinct-callee list against s. The
// caller has validated every service reference.
func (r *Region) resolve(s *Spec) {
	r.api = newCallPlan(s.services[r.API], 1, 1, r.APIExec)
	r.plan = nil
	r.services = nil
	seen := map[string]bool{}
	for _, st := range r.Stages {
		if len(st) == 0 {
			continue
		}
		stage := make([]callPlan, len(st))
		for i, c := range st {
			stage[i] = newCallPlan(s.services[c.Service], c.Times, c.Concurrency, c.Exec)
			if !seen[c.Service] {
				seen[c.Service] = true
				r.services = append(r.services, c.Service)
			}
		}
		r.plan = append(r.plan, stage)
	}
}
