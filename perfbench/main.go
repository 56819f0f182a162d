// Command perfbench is photon's benchmark. It runs one workload for a
// fixed time in whole rounds, checks every round's outputs against
// properties the method must have, and prints one JSON result line:
//
//	perfbench --workload figures --seed 1 --seconds 40 --trace 0
//	perfbench --workload plan --seed 1 --seconds 40 --trace 1
//	perfbench -refs -seed 1
//
// Workloads (README.md has their make-up):
//
//	figures     the 249-point quick regeneration grid under farm.Run
//	plan        the capacity query `plan -budget 40 -quick`
//	slo-traced  one point per workload preset, with the streaming span
//	            assembler armed
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run alternates plain rounds, the overhead baseline, with
// instrumented rounds that time the calls into each layer from this
// package, and the result carries the per-layer metrics. -refs prints the
// reference values the workloads stand for, derived afresh from the
// program (see refs.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"photon/internal/exp"
)

// A run repeats its workload's set-up at least setupReps times and for at
// least setupTime, after one untimed set-up, to report setup_s as a
// median.
const (
	setupReps = 9
	setupTime = time.Second
)

// maxWorkers bounds the benchmark's point workers, so the load is the
// same on every host with at least two CPUs.
const maxWorkers = 2

// env is what every workload round needs.
type env struct {
	opts    exp.Options // quick options at the run's seed
	workers int
	workdir string // scratch space for farm manifests, inside the checkout
	traced  bool   // the run reports per-layer metrics

	untraced []uint64 // slo-traced: each point's digest with no tracer
}

// roundStats is one round's measurement.
type roundStats struct {
	wall      time.Duration
	cpu       time.Duration
	cycles    int64 // simulated network cycles
	attempted int64
	failed    int64
	digest    uint64 // folds every simulated point of the round
	problems  []string
}

func (r *roundStats) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setup performs a round's set-up work without simulating: building
	// its grid or twins and every point's network and injector.
	setup func(e *env) error
	// prepare, when set, runs once before the rounds, untimed, to derive
	// what the rounds' checks compare against.
	prepare func(e *env) error
	// round runs the workload's job once and checks its outputs; with lt
	// non-nil it times the calls into each layer.
	round func(e *env, lt *layers) (roundStats, error)
}

var workloads = []workload{
	{name: "figures", setup: figuresSetup, round: figuresRound},
	{name: "plan", setup: planSetup, round: planRound},
	{name: "slo-traced", setup: sloSetup, prepare: sloPrepare, round: sloRound},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: figures, plan, slo-traced")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 40, "measure for this long, in whole rounds (at least one)")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from instrumented rounds")
		refs    = flag.Bool("refs", false, "print the reference values derived afresh at -seed and exit")
	)
	flag.Parse()
	if *refs {
		if err := printRefs(os.Stdout, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, workdir())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workdir holds farm manifests under the build directory run.sh uses,
// so a run writes only inside its checkout.
func workdir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "work")
	}
	return filepath.Join(".bench_build", "work")
}

func newEnv(seed uint64, workdir string) *env {
	opts := exp.QuickOptions()
	opts.Seed = seed
	workers := runtime.GOMAXPROCS(0)
	if workers > maxWorkers {
		workers = maxWorkers
	}
	opts.Parallel = workers
	return &env{opts: opts, workers: workers, workdir: workdir}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload: set-up repeated, then whole rounds until the
// next round would end past budget. A traced run pairs each instrumented
// round with a plain one, the overhead baseline.
func run(w workload, seed uint64, budget time.Duration, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	e := newEnv(seed, workdir)
	e.traced = traced

	// The untimed first set-up maps the heap the timed ones reuse.
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var setups []float64
	for begin := time.Now(); len(setups) < setupReps || time.Since(begin) < setupTime; {
		// Collect first, so no rep pays for an earlier rep's garbage.
		runtime.GC()
		start := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	var lt *layers
	if traced {
		lt = &layers{}
	}
	var base, rounds []roundStats
	start := time.Now()
	for {
		iter := time.Now()
		if traced {
			// A plain round before each instrumented one, so the overhead
			// compares rounds run at the same stage of the run.
			r, err := timedRound(w, e, nil)
			if err != nil {
				return nil, err
			}
			base = append(base, r)
		}
		r, err := timedRound(w, e, lt)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		if time.Since(start)+time.Since(iter) > budget {
			break
		}
	}

	all := append(append([]roundStats(nil), base...), rounds...)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %s\n", w.name, i, p)
		}
		if r.digest != all[0].digest {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d digest %016x != round 0 digest %016x\n",
				w.name, i, r.digest, all[0].digest)
		}
	}
	fmt.Printf("workload %s seed %d rounds %d digest %016x\n", w.name, seed, len(all), all[0].digest)

	if traced {
		lt.report(res.Metrics, median(walls(rounds))/median(walls(base))-1)
		return res, nil
	}
	var cyclesPerS, cpuPerCycle []float64
	for _, r := range rounds {
		cyclesPerS = append(cyclesPerS, float64(r.cycles)/r.wall.Seconds())
		cpuPerCycle = append(cpuPerCycle, float64(r.cpu.Nanoseconds())/float64(r.cycles))
	}
	res.Metrics["wall_s"] = metric{median(walls(rounds)), "s"}
	res.Metrics["sim_cycles_per_s"] = metric{median(cyclesPerS), "cycles/s"}
	res.Metrics["cpu_ns_per_cycle"] = metric{median(cpuPerCycle), "ns/cycle"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, nil
}

// timedRound runs one round and stamps it with its wall and CPU time.
func timedRound(w workload, e *env, lt *layers) (roundStats, error) {
	cpu0 := cpuTime()
	start := time.Now()
	r, err := w.round(e, lt)
	if err != nil {
		return r, fmt.Errorf("%s round: %w", w.name, err)
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	fmt.Printf("round wall %.4fs cpu %.4fs\n", r.wall.Seconds(), r.cpu.Seconds())
	if r.cycles == 0 {
		return r, errors.New(w.name + " round simulated no cycles")
	}
	return r, nil
}

func walls(rs []roundStats) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
