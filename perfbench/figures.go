package main

import (
	"math"
	"os"
	"path/filepath"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/twin"
)

// The figures workload regenerates the paper's 249-point quick figure
// grid (`sweep -farm figures -quick`) under farm.Run, journalling to a
// manifest in a scratch directory. farm.Run has no hook for a point
// runner, so a traced run runs the grid on farm.Do instead: its per-layer
// metrics leave out the manifest journal.

// setasidePairs pairs each setaside variant with its hold-head base.
var setasidePairs = [][2]core.Scheme{
	{core.GHSSetaside, core.GHS},
	{core.DHSSetaside, core.DHS},
}

// figPoint is one grid point's outcome, from either path.
type figPoint struct {
	done     bool
	attempts int
	digest   uint64
	thr, lat float64
}

// figuresGrid is the grid `sweep -farm figures -quick -seed <seed>` runs.
func figuresGrid(e *env) (farm.Grid, error) { return farm.Build("figures", e.opts) }

func figuresSetup(e *env) error {
	g, err := figuresGrid(e)
	if err != nil {
		return err
	}
	for _, p := range g.Points {
		if err := pointSetup(p, e.opts); err != nil {
			return err
		}
	}
	return nil
}

// pointSetup builds what a point needs before its first cycle.
func pointSetup(p exp.Point, opts exp.Options) error {
	net, cfg, err := newPointNetwork(p, opts)
	if err != nil {
		return err
	}
	inj, err := newPointInjector(p, cfg, opts)
	if err != nil {
		return err
	}
	w := net.Window()
	inj.Prepare(w.Warmup + w.Measure)
	return nil
}

func figuresRound(e *env, lt *layers) (roundStats, error) {
	var r roundStats
	g, err := figuresGrid(e)
	if err != nil {
		return r, err
	}
	outs := make([]figPoint, len(g.Points))
	if !e.traced {
		dir, err := os.MkdirTemp(e.workdir, "figures-")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		rep, err := farm.Run(g, farm.Config{Workers: e.workers, Manifest: filepath.Join(dir, "manifest.jsonl")})
		if err != nil {
			return r, err
		}
		for i, st := range rep.Points {
			outs[i] = figPoint{
				done: st.Status == farm.StatusDone, attempts: st.Attempts, digest: st.Digest,
				thr: st.Summary.Throughput, lat: st.Summary.AvgLatency,
			}
		}
	} else {
		// A traced run's rounds, plain and instrumented, run the points on
		// farm.Do, so the baseline and the instrumented rounds differ only
		// in the timing calls.
		start := time.Now()
		errs := farm.Do(len(g.Points), e.workers, func(i int) error {
			var res core.Result
			var err error
			if lt == nil {
				res, err = exp.SafeRunPoint(g.Points[i], g.Opts)
			} else {
				res, err = tracedPoint(g.Points[i], g.Opts, nil, lt)
			}
			outs[i] = figPoint{done: err == nil, attempts: 1, digest: res.Digest, thr: res.Throughput, lat: res.AvgLatency}
			return err
		})
		if lt != nil {
			lt.farmDone(e.workers, time.Since(start))
		}
		for i, err := range errs {
			if err != nil {
				r.fail("point %s: %v", g.Key(i), err)
			}
		}
	}
	var digests []uint64
	for _, o := range outs {
		if o.done {
			digests = append(digests, o.digest)
			r.cycles += e.opts.Window.Total()
		}
	}
	r.digest = farm.MergeDigests(digests)
	if err := checkFigures(g, outs, &r); err != nil {
		return r, err
	}
	return r, nil
}

// binomialTol is the tolerance on a measured per-core rate p over the
// quick window: six standard deviations of the Bernoulli draws, plus the
// in-flight population (latency x rate) that can cross either window edge.
func binomialTol(p, latency float64, opts exp.Options, cores int) float64 {
	measure := float64(opts.Window.Measure)
	return 6*math.Sqrt(p*(1-p)/(measure*float64(cores))) + p*latency/measure
}

// checkFigures checks the grid against properties the method must have:
// every point completes in one attempt; on UR points at the default
// configuration (the twin's calibration), throughput equals offered load
// below the twin's divergence edge and mean latency lies within the
// twin's max(10%, 0.75 cycles) band at utilisation <= 0.5; and each
// setaside variant saturates no lower than its hold-head base (§V).
func checkFigures(g farm.Grid, outs []figPoint, r *roundStats) error {
	cores := core.DefaultConfig(core.GHS).Cores()
	models := map[core.Scheme]*twin.Model{}
	type curve struct {
		scheme  core.Scheme
		pattern string
	}
	best := map[curve]figPoint{}
	for i, p := range g.Points {
		o := outs[i]
		r.attempted++
		if !o.done {
			r.failed++
			continue
		}
		if o.attempts != 1 {
			r.fail("point %s took %d attempts", g.Key(i), o.attempts)
		}
		if p.Mod != nil {
			continue
		}
		c := curve{p.Scheme, p.Pattern.Name()}
		if o.thr > best[c].thr {
			best[c] = o
		}
		if c.pattern != "UR" {
			continue
		}
		m, ok := models[p.Scheme]
		if !ok {
			var err error
			if m, err = twin.NewDefault(p.Scheme); err != nil {
				return err
			}
			models[p.Scheme] = m
		}
		if p.Rate < twin.DivergenceUtilization*m.SaturationRate() {
			if d := math.Abs(o.thr - p.Rate); d > binomialTol(p.Rate, o.lat, g.Opts, cores) {
				r.fail("point %s: throughput %.5f does not match offered load %.5f", g.Key(i), o.thr, p.Rate)
			}
		}
		if pred := m.Predict(p.Rate); pred.Utilization <= 0.5 {
			if d := math.Abs(o.lat - pred.Mean); d > math.Max(0.1*pred.Mean, 0.75) {
				r.fail("point %s: mean latency %.2f outside the twin's band around %.2f", g.Key(i), o.lat, pred.Mean)
			}
		}
	}
	for _, pair := range setasidePairs {
		for _, pat := range []string{"UR", "BC", "TOR"} {
			sa, base := best[curve{pair[0], pat}], best[curve{pair[1], pat}]
			if !sa.done || !base.done {
				r.fail("no %s or %s curve on %s", pair[0], pair[1], pat)
				continue
			}
			if sa.thr < base.thr-binomialTol(base.thr, base.lat, g.Opts, cores) {
				r.fail("%s on %s saturates at %.4f, below %s at %.4f", pair[0], pat, sa.thr, pair[1], base.thr)
			}
		}
	}
	return nil
}
