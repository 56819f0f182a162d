package main

import (
	"fmt"
	"os"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/ptrace"
	"photon/internal/traffic"
)

// The slo-traced workload runs the bursty, flash and diurnal arrival
// processes with the streaming span assembler armed, one
// exp.RunWorkloadSLO per point, serially as `sweep -workload <spec> -quick`
// does. Each process keeps its preset's shape (burst lengths, flash
// timing, client map, diurnal phases and period) at a quarter of the
// preset's rates, under one scheme of the global-arbitration group. At
// the presets' own rates the saturated points keep 21,000-51,000 span
// cursors resident, the assembler's periodic sweep over them takes most of
// the run, and the round's time follows the host's cache pressure, not
// the program (see README.md). At a quarter of the rates 6,000-13,000
// cursors stay resident and the sweep is still the largest share of a
// round of about 0.6 s.

// sloPoint is one traced point's outcome, from either path.
type sloPoint struct {
	res   core.Result
	spans int64 // measured delivered spans, each validated
}

// sloSpecs is each preset's workload at a quarter of its rates and the
// scheme it runs under, in preset order.
var sloSpecs = []struct {
	preset string
	scheme core.Scheme
	spec   string
}{
	{"bursty", core.GHSSetaside, "burst(rate=0.075,on=400,off=1200)"},
	{"flash", core.GHS, "flash(base=0.01,peak=0.08,at=0.5,width=0.15)|clients(n=1000000,hot=0.25,cores=4)"},
	{"diurnal", core.TokenChannel, "0.25@bernoulli(rate=0.0125);0.55@diurnal(mean=0.0275,amp=0.8,period=2500);0.2@bernoulli(rate=0.0075)"},
}

// sloPoints is the workload's points: each is the point
// `sweep -workload <spec> -quick` runs for its scheme, labelled with the
// preset it scales.
func sloPoints(e *env) ([]exp.Point, error) {
	var points []exp.Point
	for _, s := range sloSpecs {
		_, spec, err := traffic.PresetWorkload(s.spec)
		if err != nil {
			return nil, fmt.Errorf("%s workload: %w", s.preset, err)
		}
		points = append(points, exp.Point{Scheme: s.scheme, Label: s.preset,
			Pattern: traffic.UniformRandom{}, Workload: spec})
	}
	return points, nil
}

func sloSetup(e *env) error {
	points, err := sloPoints(e)
	if err != nil {
		return err
	}
	for _, p := range points {
		if err := pointSetup(p, e.opts); err != nil {
			return err
		}
	}
	return nil
}

// sloPrepare runs every slo point once with no tracer attached, so each
// round can check that arming the assembler leaves every digest as is.
func sloPrepare(e *env) error {
	points, err := sloPoints(e)
	if err != nil {
		return err
	}
	e.untraced = make([]uint64, len(points))
	start := time.Now()
	errs := farm.Do(len(points), e.workers, func(i int) error {
		res, err := exp.SafeRunPoint(points[i], e.opts)
		e.untraced[i] = res.Digest
		return err
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("slo point %d untraced: %w", i, err)
		}
	}
	fmt.Printf("slo points without the assembler: %.2fs\n", time.Since(start).Seconds())
	return nil
}

func sloRound(e *env, lt *layers) (roundStats, error) {
	var r roundStats
	points, err := sloPoints(e)
	if err != nil {
		return r, err
	}
	var digests []uint64
	for i, p := range points {
		var o sloPoint
		var err error
		if lt == nil {
			o, err = untracedSLOPoint(p, e.opts)
		} else {
			o, err = tracedSLOPoint(p, e.opts, lt)
		}
		if err != nil {
			r.attempted++
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: slo point %d (%s %s) failed: %v\n", i, p.Label, p.Scheme, err)
			continue
		}
		r.attempted += o.spans
		r.cycles += e.opts.Window.Total()
		digests = append(digests, o.res.Digest)
		if o.res.Digest != e.untraced[i] {
			r.fail("point %d (%s %s): traced digest %016x, untraced %016x",
				i, p.Label, p.Scheme, o.res.Digest, e.untraced[i])
		}
		if o.spans != o.res.Delivered {
			r.fail("point %d (%s %s): %d spans for %d measured deliveries",
				i, p.Label, p.Scheme, o.spans, o.res.Delivered)
		}
	}
	r.digest = farm.MergeDigests(digests)
	return r, nil
}

// untracedSLOPoint runs one point through exp.RunWorkloadSLO, which
// validates every span as it flushes.
func untracedSLOPoint(p exp.Point, opts exp.Options) (sloPoint, error) {
	slo, err := exp.RunWorkloadSLO(p, opts)
	if err != nil {
		return sloPoint{}, err
	}
	o := sloPoint{res: slo.Result}
	for _, ph := range slo.Phases {
		o.spans += ph.Spans
	}
	return o, nil
}

// tracedSLOPoint mirrors exp.RunWorkloadSLO with per-layer timing: the
// same stream, validating every span and counting the measured delivered
// ones.
func tracedSLOPoint(p exp.Point, opts exp.Options, lt *layers) (sloPoint, error) {
	var o sloPoint
	st := ptrace.NewStream(ptrace.StreamConfig{OnSpan: func(s *ptrace.PacketSpan) error {
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Measured && s.Delivered >= 0 && !s.Faulted {
			o.spans++
		}
		return nil
	}})
	res, err := tracedPoint(p, opts, st, lt)
	if err != nil {
		return o, err
	}
	if err := st.Close(); err != nil {
		return o, fmt.Errorf("streaming spans for %s: %w", p.Scheme, err)
	}
	o.res = res
	return o, nil
}
