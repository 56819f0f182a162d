package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/traffic"
	"photon/internal/twin"
)

// The plan workload is the capacity query `plan -budget 40 -quick`: per
// scheme the twin inversion, then, where the twin self-reports
// divergence, the 8-probe ladder of quick-window simulations from the
// envelope edge to 1.1x the twin's saturation estimate under farm.Do.
// cmd/plan is a main package, so its answer logic is mirrored here call
// for call; TestPlanMatchesCLI pins the answers to the command's -json.

const (
	planBudget = 40
	planProbes = 8
)

// answer mirrors cmd/plan's -json row for a mean-latency budget.
type answer struct {
	Scheme         string  `json:"scheme"`
	Family         string  `json:"family"`
	Metric         string  `json:"metric"`
	Budget         float64 `json:"budget"`
	Rate           float64 `json:"rate"`
	Utilization    float64 `json:"utilization"`
	Latency        float64 `json:"latency"`
	SaturationRate float64 `json:"saturation_rate"`
	Source         string  `json:"source"`
	Diverged       bool    `json:"diverged"`
}

// probe is one refinement simulation.
type probe struct {
	rate float64
	res  core.Result
}

func planSetup(e *env) error {
	for _, s := range core.Schemes() {
		m, err := twin.NewDefault(s)
		if err != nil {
			return err
		}
		if !m.CapacityFor(planBudget, false).Prediction.Diverged {
			continue
		}
		for _, rate := range probeRates(m) {
			if err := pointSetup(exp.Point{Scheme: s, Pattern: traffic.UniformRandom{}, Rate: rate}, e.opts); err != nil {
				return err
			}
		}
	}
	return nil
}

func planRound(e *env, lt *layers) (roundStats, error) {
	var r roundStats
	answers, probes, err := planQuery(e, lt)
	if err != nil {
		return r, err
	}
	var digests []uint64
	for _, s := range core.Schemes() {
		for _, p := range probes[s.String()] {
			digests = append(digests, p.res.Digest)
			r.cycles += e.opts.Window.Total()
		}
	}
	for _, a := range answers {
		digests = append(digests, math.Float64bits(a.Rate))
	}
	r.digest = farm.MergeDigests(digests)
	checkPlan(answers, probes, e.opts, &r)
	return r, nil
}

// planQuery answers the query for every scheme, returning the answers
// ranked as cmd/plan prints them and each scheme's probes (nil where
// the twin answered in closed form).
func planQuery(e *env, lt *layers) ([]answer, map[string][]probe, error) {
	var answers []answer
	probes := map[string][]probe{}
	for _, s := range core.Schemes() {
		start := time.Now()
		m, err := twin.NewDefault(s)
		if err != nil {
			return nil, nil, err
		}
		res := m.CapacityFor(planBudget, false)
		if lt != nil {
			lt.twinDone(1, time.Since(start))
		}
		a := answer{
			Scheme: s.String(), Family: m.Family(), Metric: "mean", Budget: planBudget,
			Rate: res.Rate, Utilization: res.Utilization, Latency: res.Prediction.Mean,
			SaturationRate: m.SaturationRate(), Source: "twin", Diverged: res.Prediction.Diverged,
		}
		if res.Prediction.Diverged {
			ps, err := runProbes(e, lt, s, m)
			if err != nil {
				return nil, nil, err
			}
			probes[a.Scheme] = ps
			a.Source = "twin+sim"
			if best := bestProbe(ps); best >= 0 {
				a.Rate = ps[best].rate
				a.Latency = ps[best].res.AvgLatency
				a.Utilization = a.Rate / m.SaturationRate()
			} else {
				edge := twin.DivergenceUtilization * m.SaturationRate()
				p := m.Predict(edge)
				a.Rate, a.Utilization, a.Latency, a.Diverged = edge, p.Utilization, p.Mean, false
			}
		}
		answers = append(answers, a)
	}
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].Rate > answers[j].Rate })
	return answers, probes, nil
}

// probeRates is the probe ladder from the envelope edge to 10% past the
// twin's saturation estimate.
func probeRates(m *twin.Model) []float64 {
	lo := twin.DivergenceUtilization * m.SaturationRate()
	hi := 1.1 * m.SaturationRate()
	rates := make([]float64, planProbes)
	for i := range rates {
		rates[i] = lo + (hi-lo)*float64(i+1)/planProbes
	}
	return rates
}

// runProbes simulates the probe ladder.
func runProbes(e *env, lt *layers, s core.Scheme, m *twin.Model) ([]probe, error) {
	ps := make([]probe, planProbes)
	for i, rate := range probeRates(m) {
		ps[i].rate = rate
	}
	start := time.Now()
	errs := farm.Do(planProbes, e.workers, func(i int) error {
		p := exp.Point{Scheme: s, Pattern: traffic.UniformRandom{}, Rate: ps[i].rate}
		var err error
		if lt == nil {
			ps[i].res, err = exp.SafeRunPoint(p, e.opts)
		} else {
			ps[i].res, err = tracedPoint(p, e.opts, nil, lt)
		}
		return err
	})
	if lt != nil {
		lt.farmDone(e.workers, time.Since(start))
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("refining %s at %.4f: %w", s, ps[i].rate, err)
		}
	}
	return ps, nil
}

// sustains reports whether a probe carried its offered load within 3%
// and met the budget on the measured mean.
func sustains(p probe) bool {
	return p.res.Throughput >= 0.97*p.rate && p.res.AvgLatency <= planBudget
}

// bestProbe is the highest-rate probe that sustains, or -1.
func bestProbe(ps []probe) int {
	best := -1
	for i, p := range ps {
		if sustains(p) {
			best = i
		}
	}
	return best
}

// checkPlan checks the query against properties the method must have,
// read off the simulated probes rather than off the answer selection: no
// probe accepts more than its offered load; capacity is monotone, so every
// probe up to the answered rate carries its offered load; mean latency
// does not fall as the probe rate rises; and each setaside scheme's
// answer is at least its hold-head base's (§V). The tolerance on
// throughput is the figures workload's binomial one.
func checkPlan(answers []answer, probes map[string][]probe, opts exp.Options, r *roundStats) {
	cores := core.DefaultConfig(core.GHS).Cores()
	rates := map[string]float64{}
	for _, a := range answers {
		r.attempted++
		rates[a.Scheme] = a.Rate
		ps := probes[a.Scheme]
		for i, p := range ps {
			r.attempted++
			tol := binomialTol(p.rate, p.res.AvgLatency, opts, cores)
			if p.res.Throughput > p.rate+tol {
				r.fail("%s: probe at %.4f accepts %.4f, more than it is offered", a.Scheme, p.rate, p.res.Throughput)
			}
			if p.rate <= a.Rate && p.res.Throughput < p.rate-tol {
				r.fail("%s: probe at %.4f carries only %.4f, below the answered rate %.4f",
					a.Scheme, p.rate, p.res.Throughput, a.Rate)
			}
			if i > 0 && p.res.AvgLatency < ps[i-1].res.AvgLatency {
				r.fail("%s: mean latency falls from %.2f at %.4f to %.2f at %.4f",
					a.Scheme, ps[i-1].res.AvgLatency, ps[i-1].rate, p.res.AvgLatency, p.rate)
			}
		}
	}
	for _, pair := range setasidePairs {
		if rates[pair[0].String()] < rates[pair[1].String()] {
			r.fail("%s answers %.4f, below %s at %.4f", pair[0], rates[pair[0].String()], pair[1], rates[pair[1].String()])
		}
	}
}
