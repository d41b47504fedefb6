package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/workload"
)

// WhatIfRequest is the POST /sessions/{id}/whatif body: fork the session
// at sim time at_s, apply the perturbations, and report the delta against
// an unperturbed baseline branch. At least one perturbation is required.
// Zero values mean "leave unchanged".
type WhatIfRequest struct {
	// AtS is the fork point in simulation seconds.
	AtS float64 `json:"at_s"`
	// Budget retargets the power budget fraction, as SetBudgetFraction.
	Budget float64 `json:"budget,omitempty"`
	// MaxFreqGHz clamps every server's DVFS ceiling.
	MaxFreqGHz float64 `json:"max_freq_ghz,omitempty"`
	// LoadFactor multiplies the closed-loop worker count.
	LoadFactor float64 `json:"load_factor,omitempty"`
	// RateFactor scales the session's time-varying traffic profile from
	// the fork point on. Requires a scenario with a workload section.
	RateFactor float64 `json:"rate_factor,omitempty"`
	// Profile swaps the traffic profile at the fork point to a registered
	// generator ("diurnal", "flash-crowd", ...). Requires a workload
	// section; the generated schedule covers the rest of the run.
	Profile string `json:"profile,omitempty"`
	// Rate is the base per-region level for the swapped Profile. Zero
	// inherits the scenario workload's own rate (trace-driven sessions
	// carry no rate, so there it is required).
	Rate float64 `json:"rate,omitempty"`
}

func (q WhatIfRequest) validate() error {
	if q.AtS < 0 {
		return fmt.Errorf("at_s %v must not be negative", q.AtS)
	}
	if q.Budget == 0 && q.MaxFreqGHz == 0 && q.LoadFactor == 0 && q.RateFactor == 0 && q.Profile == "" {
		return fmt.Errorf("what-if needs at least one perturbation (budget, max_freq_ghz, load_factor, rate_factor, profile)")
	}
	if q.Budget < 0 || q.Budget > 1 {
		return fmt.Errorf("budget %v must be in (0, 1]", q.Budget)
	}
	if q.MaxFreqGHz < 0 {
		return fmt.Errorf("max_freq_ghz %v must not be negative", q.MaxFreqGHz)
	}
	if q.LoadFactor < 0 {
		return fmt.Errorf("load_factor %v must not be negative", q.LoadFactor)
	}
	if q.RateFactor < 0 {
		return fmt.Errorf("rate_factor %v must not be negative", q.RateFactor)
	}
	if q.Profile != "" {
		if _, ok := workload.Lookup(q.Profile); !ok {
			return fmt.Errorf("unknown profile %q (known: %s)",
				q.Profile, strings.Join(workload.Names(), ", "))
		}
	}
	if q.Rate < 0 {
		return fmt.Errorf("rate %v must not be negative", q.Rate)
	}
	if q.Rate != 0 && q.Profile == "" {
		return fmt.Errorf("rate needs profile")
	}
	return nil
}

func parseWhatIf(r io.Reader) (WhatIfRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q WhatIfRequest
	if err := dec.Decode(&q); err != nil {
		return q, err
	}
	return q, q.validate()
}

// branchDoc summarizes one what-if branch (post-warmup aggregate).
type branchDoc struct {
	P90Ms             float64 `json:"p90_ms"`
	P99Ms             float64 `json:"p99_ms"`
	ViolationFraction float64 `json:"violation_fraction"`
	FirstViolationS   float64 `json:"first_violation_s"` // -1 when never tripped
}

// whatIfDoc is the response body. Like /result, everything in it derives
// from (scenario, query) alone, so identical queries — from any client,
// against any session running the same scenario — return byte-identical
// bodies.
type whatIfDoc struct {
	Scenario  experiments.Scenario `json:"scenario"`
	Query     WhatIfRequest        `json:"query"`
	Baseline  branchDoc            `json:"baseline"`
	Perturbed branchDoc            `json:"perturbed"`
	Delta     struct {
		P90Ms             float64 `json:"p90_ms"`
		P99Ms             float64 `json:"p99_ms"`
		ViolationFraction float64 `json:"violation_fraction"`
	} `json:"delta"`
}

type whatifCmd struct {
	req   WhatIfRequest
	reply chan cmdReply
}

// cmdReply is the session goroutine's answer to any sessionCmd.
type cmdReply struct {
	status int
	body   []byte // response document, or an error message when status != 200
}

func (c *whatifCmd) fail(status int, msg string) {
	c.reply <- cmdReply{status: status, body: errorBody(msg)}
}

func branchStats(res *engine.Result, tel *telemetry.Telemetry) branchDoc {
	sum := res.Summary("")
	d := branchDoc{P90Ms: ms(sum.P90), P99Ms: ms(sum.P99), FirstViolationS: -1}
	for _, r := range tel.SLOReport() {
		if r.Series != "all" {
			continue
		}
		if r.EvalTicks > 0 {
			d.ViolationFraction = float64(r.ViolationTicks) / float64(r.EvalTicks)
		}
		if r.FirstViolation >= 0 {
			d.FirstViolationS = r.FirstViolation.Seconds()
		}
	}
	return d
}

// exec runs one what-if on the session goroutine, which owns the
// engine. The protocol (see internal/engine/fork.go): the baseline is the
// session's memoized unperturbed run; the perturbed branch replays from
// the t=0 base snapshot to the fork point, applies the perturbations and
// runs to completion. The engine is then left detoured: resumeLive
// replays the live run back only when something reads it, so the detour
// stays invisible to the session's own outputs. Telemetry publication is
// suspended for the duration so /status and the stream never see detour
// state.
func (c *whatifCmd) exec(s *session) {
	at, swap, err := s.prepare(c.req)
	if err != nil {
		c.fail(statusUnprocessable, err.Error())
		return
	}
	res := s.res
	s.tel.SetPublishing(false)
	defer s.tel.SetPublishing(true)

	if s.baseline == nil {
		// A running or cancelled session that never detoured: its engine
		// is the live run, so finishing it is the baseline branch.
		s.detoured = true
		res.Finish()
		b := branchStats(res, s.tel)
		s.baseline = &b
	}
	if err := res.ReplayTo(s.base, at); err != nil { // unreachable: prepare bounds at
		c.fail(statusInternal, err.Error())
		return
	}
	s.detoured = true
	if err := perturb(res, c.req, swap); err != nil { // unreachable: checked by prepare
		c.fail(statusInternal, err.Error())
		return
	}
	res.Finish()
	c.reply <- whatIfReply(s.scenario, c.req, *s.baseline, branchStats(res, s.tel))
}

// prepare checks q against the session before any fork, so a bad query
// fails fast with the session untouched: it bounds at_s by the run's end
// and builds the swap profile. Everything derives from (scenario, query)
// alone, keeping the response deterministic. It returns the fork time and
// the swap profile (nil when q swaps none).
func (s *session) prepare(q WhatIfRequest) (sim.Time, *workload.Profile, error) {
	res := s.res
	// Compare in seconds before converting: at_s*1e9 overflows sim.Time
	// for large values.
	total := res.Total()
	if end := time.Duration(total).Seconds(); q.AtS > end {
		return 0, nil, fmt.Errorf("at_s %v is past the run's end at %vs", q.AtS, end)
	}
	at := sim.Time(q.AtS * 1e9)
	if (q.RateFactor != 0 || q.Profile != "") && res.Driver == nil {
		return 0, nil, fmt.Errorf("session has no time-varying workload (rate_factor/profile need a scenario workload section)")
	}
	if q.Profile == "" {
		return at, nil, nil
	}
	rate := q.Rate
	if rate == 0 && s.scenario.Workload != nil {
		rate = s.scenario.Workload.Rate
	}
	if rate <= 0 {
		return 0, nil, fmt.Errorf("rate is required to swap the profile of a trace-driven session")
	}
	reg, _ := workload.Lookup(q.Profile) // validated on parse
	// Generate over the regions the live profile drives — a trace may
	// cover a subset of the app's regions, and only those have generators
	// to swap onto.
	regions := res.Config.Profile.Regions()
	rates := make(map[string]float64, len(regions))
	for _, r := range regions {
		rates[r] = rate
	}
	swap, err := reg.New(workload.GenInput{
		Regions: regions,
		Rates:   rates,
		Horizon: time.Duration(total),
		Seed:    s.scenario.Seed,
	})
	if err != nil {
		return 0, nil, err
	}
	return at, swap, nil
}

// perturb applies q's perturbations, and the swap profile prepare built
// for it, at the fork point.
func perturb(res *engine.Result, q WhatIfRequest, swap *workload.Profile) error {
	if q.Budget != 0 {
		res.SetBudgetFraction(q.Budget)
	}
	if q.MaxFreqGHz != 0 {
		res.ClampFreq(cluster.GHz(q.MaxFreqGHz))
	}
	if q.LoadFactor != 0 {
		res.ScaleWorkers(q.LoadFactor)
	}
	if q.RateFactor != 0 {
		if err := res.ScaleTraffic(q.RateFactor); err != nil {
			return err
		}
	}
	if swap != nil {
		return res.SwapProfile(swap)
	}
	return nil
}

// whatIfReply is the 200 reply to q given its two branches.
func whatIfReply(sc experiments.Scenario, q WhatIfRequest, baseline, perturbed branchDoc) cmdReply {
	doc := whatIfDoc{Scenario: sc, Query: q, Baseline: baseline, Perturbed: perturbed}
	doc.Delta.P90Ms = perturbed.P90Ms - baseline.P90Ms
	doc.Delta.P99Ms = perturbed.P99Ms - baseline.P99Ms
	doc.Delta.ViolationFraction = perturbed.ViolationFraction - baseline.ViolationFraction
	body, err := json.Marshal(doc)
	if err != nil { // unreachable: plain data
		return cmdReply{status: statusInternal, body: errorBody(err.Error())}
	}
	return cmdReply{status: statusOK, body: append(body, '\n')}
}
