package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/traffic"
	"photon/internal/twin"
)

// These tests pin the benchmark to the commands it stands for, so that
// it cannot drift from them unnoticed.

func testEnv(t *testing.T) *env {
	t.Helper()
	return newEnv(1, t.TempDir())
}

// The figures workload runs exactly the grid `sweep -farm figures -quick`
// builds.
func TestFiguresGridIsTheQuickFigureGrid(t *testing.T) {
	g, err := figuresGrid(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := farm.Build("figures", exp.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != want.Fingerprint() || len(g.Points) != 249 {
		t.Fatalf("grid fingerprint %016x over %d points, want %016x over 249",
			g.Fingerprint(), len(g.Points), want.Fingerprint())
	}
}

// The plan workload's answers are those of `plan -budget 40 -quick -json`
// at the same seed, byte for byte.
func TestPlanMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the plan query twice")
	}
	answers, _, err := planQuery(testEnv(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(answers)
	if err != nil {
		t.Fatal(err)
	}
	want, err := planCLI(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("benchmark answers\n%s\nplan command\n%s", got, want)
	}
}

// The slo-traced points are, preset by preset, the point
// `sweep -workload <spec> -quick` runs for the point's scheme, where the
// spec is the preset's with every rate (rate, base, peak, mean) at a
// quarter of its value and all else as is.
func TestSLOPointsScaleThePresets(t *testing.T) {
	points, err := sloPoints(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	presets := traffic.PresetWorkloads()
	if len(points) != len(presets) {
		t.Fatalf("%d points for %d presets", len(points), len(presets))
	}
	if p := points[len(points)-1]; p.Label != "diurnal" || p.Scheme != core.TokenChannel {
		t.Fatalf("last point is %s under %s, want diurnal under token-channel", p.Label, p.Scheme)
	}
	rateRE := regexp.MustCompile(`\b(rate|base|peak|mean)=([0-9.]+)`)
	for i, p := range points {
		scaled := rateRE.ReplaceAllStringFunc(presets[i].Spec, func(m string) string {
			kv := strings.SplitN(m, "=", 2)
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return kv[0] + "=" + strconv.FormatFloat(v/4, 'g', -1, 64)
		})
		_, want, err := traffic.PresetWorkload(scaled)
		if err != nil {
			t.Fatal(err)
		}
		if p.Label != presets[i].Name || p.Workload != want {
			t.Fatalf("point %d is %s %q, want %s %q", i, p.Label, p.Workload, presets[i].Name, want)
		}
		if p.Scheme != sloSpecs[i].scheme || p.Pattern.Name() != "UR" || p.Rate != 0 || p.Mod != nil {
			t.Fatalf("point %d (%s) is not the sweep's %s point", i, p.Label, p.Scheme)
		}
	}
}

// The traced path reproduces the untraced one bit for bit.
func TestTracedPointsMatchUntraced(t *testing.T) {
	opts := exp.QuickOptions()
	for _, p := range []exp.Point{
		{Scheme: core.GHSSetaside, Pattern: traffic.Tornado{}, Rate: 0.05},
		{Scheme: core.DHS, Pattern: traffic.UniformRandom{}, Rate: 0.1, Mod: func(c *core.Config) { c.BufferDepth = 4 }},
	} {
		want, err := exp.RunPoint(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		lt := &layers{}
		got, err := tracedPoint(p, opts, nil, lt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s %s: traced result differs from exp.RunPoint", p.Scheme, p.Pattern.Name())
		}
		if lt.events != want.DigestEvents || lt.stepCycles+lt.drainCycles != opts.Window.Total() {
			t.Fatalf("%s: counted %d events over %d cycles", p.Scheme, lt.events, lt.stepCycles+lt.drainCycles)
		}
	}

	points, err := sloPoints(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	want, err := untracedSLOPoint(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	lt := &layers{}
	got, err := tracedSLOPoint(p, opts, lt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("traced slo point %+v, RunWorkloadSLO %+v", got, want)
	}
	if lt.observeSamples == 0 || lt.maxLive == 0 {
		t.Fatalf("%d Observe samples, max live %d", lt.observeSamples, lt.maxLive)
	}
}

// A run prints exactly the metrics BENCHMARK.json names, with their
// units: the end-to-end ones untraced, the per-layer ones traced.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the plan workload three times")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("plan")
	if err != nil {
		t.Fatal(err)
	}
	for traced, want := range map[bool][]struct{ Name, Unit string }{false: bench.EndToEnd, true: bench.PerLayer} {
		res, err := run(w, 1, time.Millisecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Fatalf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Fatalf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
			}
		}
	}
}

// The figures checks reject outcomes that break the method's properties.
func TestFiguresChecksCatchViolations(t *testing.T) {
	g, err := figuresGrid(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// An ideal grid: every point carries its load at the twin's latency.
	ideal := make([]figPoint, len(g.Points))
	for i, p := range g.Points {
		lat := 20.0
		if m, err := twin.NewDefault(p.Scheme); err == nil && p.Pattern.Name() == "UR" && p.Mod == nil {
			lat = m.Predict(p.Rate).Mean
		}
		ideal[i] = figPoint{done: true, attempts: 1, thr: p.Rate, lat: lat}
	}
	var r roundStats
	if err := checkFigures(g, ideal, &r); err != nil || len(r.problems) != 0 {
		t.Fatalf("ideal grid: err %v, problems %v", err, r.problems)
	}
	if r.attempted != int64(len(g.Points)) || r.failed != 0 {
		t.Fatalf("attempted %d failed %d", r.attempted, r.failed)
	}

	for name, spoil := range map[string]func(i int, p exp.Point, o *figPoint){
		"retried": func(i int, p exp.Point, o *figPoint) {
			if i == 7 {
				o.attempts = 2
			}
		},
		"lost load": func(i int, p exp.Point, o *figPoint) {
			if p.Pattern.Name() == "UR" && p.Mod == nil && p.Rate == 0.01 && p.Scheme == core.DHS {
				o.thr *= 0.9
			}
		},
		"latency off the twin": func(i int, p exp.Point, o *figPoint) {
			if p.Pattern.Name() == "UR" && p.Mod == nil && p.Rate == 0.01 && p.Scheme == core.GHS {
				o.lat *= 1.3
			}
		},
		"setaside saturates early": func(i int, p exp.Point, o *figPoint) {
			if p.Scheme == core.DHSSetaside && p.Pattern.Name() == "BC" && p.Mod == nil {
				o.thr = p.Rate * 0.5
			}
		},
	} {
		outs := append([]figPoint(nil), ideal...)
		for i, p := range g.Points {
			spoil(i, p, &outs[i])
		}
		var r roundStats
		if err := checkFigures(g, outs, &r); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) == 0 {
			t.Errorf("%s: no problem reported", name)
		}
	}
}

// The plan checks reject probes and answers that break the query's
// properties.
func TestPlanChecksCatchViolations(t *testing.T) {
	opts := exp.QuickOptions()
	// A good query: every scheme answers, and token-channel's ladder
	// carries its load up to the answered 0.14 with rising latency, then
	// saturates.
	good := func() ([]answer, map[string][]probe) {
		var as []answer
		for i, s := range core.Schemes() {
			as = append(as, answer{Scheme: s.String(), Rate: 0.05 + 0.01*float64(i), SaturationRate: 0.2, Latency: 30})
		}
		var ladder []probe
		for i := 0; i < planProbes; i++ {
			rate := 0.1 + 0.01*float64(i)
			thr := rate
			if rate > 0.145 {
				thr = 0.145
			}
			ladder = append(ladder, probe{rate: rate, res: core.Result{Throughput: thr, AvgLatency: 20 + 5*float64(i)}})
		}
		for i := range as {
			if as[i].Scheme == core.TokenChannel.String() {
				as[i].Rate = 0.14
			}
		}
		return as, map[string][]probe{core.TokenChannel.String(): ladder}
	}
	as, ps := good()
	var r roundStats
	checkPlan(as, ps, opts, &r)
	if len(r.problems) != 0 {
		t.Fatalf("good query: %v", r.problems)
	}
	if r.attempted != int64(len(as)+planProbes) {
		t.Fatalf("attempted %d, want %d", r.attempted, len(as)+planProbes)
	}
	tc := core.TokenChannel.String()
	for name, spoil := range map[string]func(as []answer, ps map[string][]probe){
		"accepts more than offered": func(as []answer, ps map[string][]probe) {
			ps[tc][6].res.Throughput = 0.2
		},
		"capacity not monotone": func(as []answer, ps map[string][]probe) {
			ps[tc][1].res.Throughput = 0.09
		},
		"latency falls": func(as []answer, ps map[string][]probe) {
			ps[tc][5].res.AvgLatency = 10
		},
		"setaside below base": func(as []answer, ps map[string][]probe) {
			for i := range as {
				if as[i].Scheme == core.GHSSetaside.String() {
					as[i].Rate = 0.01
				}
			}
		},
	} {
		as, ps := good()
		spoil(as, ps)
		var r roundStats
		checkPlan(as, ps, opts, &r)
		if len(r.problems) == 0 {
			t.Errorf("%s: no problem reported", name)
		}
	}
}
