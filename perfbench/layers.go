package main

import (
	"sync"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/ptrace"
	"photon/internal/traffic"
)

// This file is the traced path: a point runner that mirrors exp.RunPoint
// and exp.RunWorkloadSLO call for call, timing each call into the
// traffic, core and ptrace layers from here. Every traced round checks
// its digests against the untraced round of the same run, so the mirror
// cannot drift from the code it stands for without failing the run.

// observeStride samples one Stream.Observe call in this many. It is
// prime, so the samples do not align with the stream's periodic sweep
// (every 512 records) and hit it in proportion.
const observeStride = 61

// layers accumulates one run's per-layer counters and host times.
type layers struct {
	mu sync.Mutex

	injectNs, injectCycles int64 // Injector.Tick
	packets                int64 // packets injected
	stepNs, stepCycles     int64 // Network.Step
	drainNs, drainCycles   int64 // drain RunCycles
	events                 uint64
	retx, delivered        int64
	networks, networkNs    int64 // core.NewNetwork

	observeSamples, observeNs int64 // ptrace.Stream.Observe
	maxLive                   int

	busyNs, farmSlotNs int64 // point time vs workers x farm wall

	twinCalls, twinNs int64 // twin.NewDefault + CapacityFor
}

func (lt *layers) add(p *pointLayers) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.injectNs += p.injectNs
	lt.injectCycles += p.injectCycles
	lt.packets += p.packets
	lt.stepNs += p.stepNs
	lt.stepCycles += p.stepCycles
	lt.drainNs += p.drainNs
	lt.drainCycles += p.drainCycles
	lt.events += p.events
	lt.retx += p.retx
	lt.delivered += p.delivered
	lt.networks++
	lt.networkNs += p.networkNs
	lt.busyNs += p.totalNs
	if p.tracer != nil {
		lt.observeSamples += p.tracer.samples
		lt.observeNs += p.tracer.ns
		if live := p.tracer.inner.MaxLive(); live > lt.maxLive {
			lt.maxLive = live
		}
	}
}

// farmDone records one farm.Do call's worker slots: busy_share divides
// the points' own time by workers x the call's wall time.
func (lt *layers) farmDone(workers int, wall time.Duration) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.farmSlotNs += int64(workers) * wall.Nanoseconds()
}

func (lt *layers) twinDone(calls int, d time.Duration) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.twinCalls += int64(calls)
	lt.twinNs += d.Nanoseconds()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report writes the per-layer metrics. A layer the workload never enters
// reports 0.
func (lt *layers) report(m map[string]metric, overhead float64) {
	cycles := float64(lt.stepCycles + lt.drainCycles)
	m["traffic.inject_ns_per_cycle"] = metric{ratio(float64(lt.injectNs), float64(lt.injectCycles)), "ns/cycle"}
	m["traffic.packets_per_cycle"] = metric{ratio(float64(lt.packets), float64(lt.injectCycles)), "packets/cycle"}
	m["core.step_ns_per_cycle"] = metric{ratio(float64(lt.stepNs), float64(lt.stepCycles)), "ns/cycle"}
	m["core.drain_ns_per_cycle"] = metric{ratio(float64(lt.drainNs), float64(lt.drainCycles)), "ns/cycle"}
	m["core.events_per_cycle"] = metric{ratio(float64(lt.events), cycles), "events/cycle"}
	m["core.ns_per_event"] = metric{ratio(float64(lt.injectNs+lt.stepNs+lt.drainNs), float64(lt.events)), "ns/event"}
	m["core.retx_per_delivery"] = metric{ratio(float64(lt.retx), float64(lt.delivered)), "retx/packet"}
	m["core.network_setup_us"] = metric{ratio(float64(lt.networkNs), float64(lt.networks)) / 1e3, "us"}
	m["farm.busy_share"] = metric{ratio(float64(lt.busyNs), float64(lt.farmSlotNs)), "share"}
	m["twin.capacity_us"] = metric{ratio(float64(lt.twinNs), float64(lt.twinCalls)) / 1e3, "us"}
	m["trace.overhead"] = metric{overhead, "share"}
	m["ptrace.observe_ns_per_event"] = metric{ratio(float64(lt.observeNs), float64(lt.observeSamples)), "ns/event"}
	m["ptrace.max_live"] = metric{float64(lt.maxLive), "count"}
}

// pointLayers is one point's share of the per-layer counters.
type pointLayers struct {
	injectNs, injectCycles int64
	packets                int64
	stepNs, stepCycles     int64
	drainNs, drainCycles   int64
	events                 uint64
	retx, delivered        int64
	networkNs              int64
	totalNs                int64
	tracer                 *sampledTracer
}

// sampledTracer forwards every event to a ptrace.Stream and times one
// Observe call in observeStride; reading the clock per event would cost
// more than most Observe calls.
type sampledTracer struct {
	inner          *ptrace.Stream
	n, samples, ns int64
}

func (t *sampledTracer) Observe(e core.Event) {
	t.n++
	if t.n%observeStride != 0 {
		t.inner.Observe(e)
		return
	}
	start := time.Now()
	t.inner.Observe(e)
	t.ns += time.Since(start).Nanoseconds()
	t.samples++
}

// newPointNetwork mirrors the set-up half of exp.RunPoint.
func newPointNetwork(p exp.Point, opts exp.Options) (*core.Network, core.Config, error) {
	cfg := core.DefaultConfig(p.Scheme)
	cfg.Seed = opts.Seed
	if p.Mod != nil {
		p.Mod(&cfg)
	}
	net, err := core.NewNetwork(cfg, opts.Window)
	return net, cfg, err
}

// injectorSeedOffset is the offset exp derives a point's injection seed
// with; the traced rounds' digest checks pin it.
const injectorSeedOffset = 0x9E37

// newPointInjector mirrors exp's point injector: the legacy Bernoulli
// injector for a bare rate, the parsed workload otherwise.
func newPointInjector(p exp.Point, cfg core.Config, opts exp.Options) (*traffic.Injector, error) {
	seed := opts.Seed + injectorSeedOffset
	if p.Workload == "" {
		return traffic.NewInjector(p.Pattern, p.Rate, cfg.Nodes, cfg.CoresPerNode, seed)
	}
	w, err := traffic.ParseWorkload(p.Workload)
	if err != nil {
		return nil, err
	}
	return traffic.NewWorkloadInjector(w, p.Pattern, cfg.Nodes, cfg.CoresPerNode, seed)
}

// tracedPoint runs one point as Injector.Run does, timing Tick, Step and
// the drain per cycle. With stream non-nil the point runs with that
// assembler armed, sampled by a sampledTracer.
func tracedPoint(p exp.Point, opts exp.Options, stream *ptrace.Stream, lt *layers) (core.Result, error) {
	var pl pointLayers
	begin := time.Now()
	net, cfg, err := newPointNetwork(p, opts)
	if err != nil {
		return core.Result{}, err
	}
	pl.networkNs = time.Since(begin).Nanoseconds()
	inj, err := newPointInjector(p, cfg, opts)
	if err != nil {
		return core.Result{}, err
	}
	w := net.Window()
	inj.Prepare(w.Warmup + w.Measure)
	if stream != nil {
		pl.tracer = &sampledTracer{inner: stream}
		net.SetTracer(pl.tracer)
	}

	last := time.Now()
	for cyc := int64(0); cyc < w.Warmup+w.Measure; cyc++ {
		inj.Tick(net)
		mid := time.Now()
		net.Step()
		now := time.Now()
		pl.injectNs += mid.Sub(last).Nanoseconds()
		pl.stepNs += now.Sub(mid).Nanoseconds()
		last = now
	}
	net.RunCycles(w.Drain)
	pl.drainNs = time.Since(last).Nanoseconds()
	res := net.Result()

	st := net.Stats()
	pl.injectCycles = w.Warmup + w.Measure
	pl.stepCycles = w.Warmup + w.Measure
	pl.drainCycles = w.Drain
	pl.packets = st.Injected
	pl.events = res.DigestEvents
	pl.retx = st.Retransmits
	pl.delivered = st.Delivered
	pl.totalNs = time.Since(begin).Nanoseconds()
	lt.add(&pl)
	return res, nil
}
