package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// servingSpec freezes one serving workload: its fleet, its traffic and
// the rates and counts that size it. The rates were calibrated on the
// seed code and then frozen (bench/README.md has the numbers): closedRate
// only sizes the fixed op count of the closed loop, about 5 s worth;
// openRate is a third of the measured capacity on hot_session and a fifth
// to a quarter on the model-running workloads, whose long-tailed service
// times would otherwise turn the latency percentiles into a measure of
// queueing luck.
type servingSpec struct {
	name       string
	topo       topology
	sticky     bool    // pin ops to client goroutines by lane
	warm       int     // untimed warm-up ops; hot_session: distinct requests it replays, all sent once to warm
	openRate   float64 // ops/s of the open loop
	closedRate float64 // ops/s, closed-loop op count = closedRate * its share of --seconds
	// segments splits the closed loop into equal parts whose median is
	// reported. hot_session uses 8: its noise is collector cycles and
	// scheduling hiccups inside a run, which a median over segments drops
	// (measured: 11% spread of throughput as one phase, 4-9% as the median
	// of 8). The model-running workloads use 1: segmenting them changed
	// nothing, and the whole phase always holds the same queries where a
	// segment would hold whichever the seed's order gave it.
	segments   int
	sampleRate float64 // traced ops per second of --seconds
	sloMs      float64 // client.slo_met_share: full-quality answer within this
	build      func(p *pool, seed int64, s servingSpec, clientFor func(name string, lane int) string, open, closed int) *stream
}

// Shares of --seconds: the open loop gets more because percentiles need
// samples, the closed loop's mean does not.
const (
	openShare   = 0.7
	closedShare = 0.3
	// A phase is cut off at phaseCap times its planned length, so a much
	// slower machine or change still ends inside the driver's time limit.
	phaseCap = 1.6
)

var servingSpecs = []servingSpec{
	{
		name:       "cold_model",
		topo:       topology{replicas: 1},
		warm:       50,
		openRate:   12,
		closedRate: 62,
		segments:   1,
		sampleRate: 8,
		sloMs:      150,
		build: func(p *pool, seed int64, s servingSpec, _ func(string, int) string, open, closed int) *stream {
			return coldStream(p, seed, s.warm, open, closed)
		},
	},
	{
		name:       "hot_session",
		topo:       topology{replicas: 2, gateway: true},
		warm:       hotPairs,
		openRate:   4000,
		closedRate: 12500,
		segments:   8,
		sampleRate: 160,
		sloMs:      2,
		build: func(p *pool, seed int64, s servingSpec, clientFor func(string, int) string, open, closed int) *stream {
			return hotStream(p, seed, s.warm, open, closed, clientFor)
		},
	},
	{
		name:       "drift_batch",
		topo:       topology{replicas: 2, gateway: true, batchSize: 8, cacheSize: 256, maxQueue: 16},
		sticky:     true,
		warm:       40,
		openRate:   10,
		closedRate: 48,
		segments:   1,
		sampleRate: 7,
		sloMs:      250,
		build: func(p *pool, seed int64, s servingSpec, clientFor func(string, int) string, open, closed int) *stream {
			return driftStream(p, seed, s.warm, open, closed, clientFor)
		},
	},
}

// env is a serving workload set up and warmed, ready for timed ops.
type env struct {
	pool    *pool
	golden  golden
	fleet   *fleet
	stream  *stream
	sender  *sender
	synthMs float64
	loadMs  float64
}

func (e *env) close() error {
	e.sender.client.CloseIdleConnections()
	return e.fleet.stop()
}

// setup is everything before the first timed op: generate the inputs,
// read the goldens, load the model and start the fleet (gateway warm-up
// probes included), then send the warm-up ops.
func (s servingSpec) setup(cfg runConfig, open, closed int) (*env, error) {
	t0 := time.Now()
	p, err := buildPool()
	if err != nil {
		return nil, err
	}
	synthMs := millis(time.Since(t0))
	g, err := loadGolden(cfg.dataDir, s.name)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(filepath.Join(cfg.dataDir, "model"), s.topo)
	if err != nil {
		return nil, err
	}
	e := &env{pool: p, golden: g, fleet: f, synthMs: synthMs, loadMs: millis(f.loadTime)}
	e.stream = s.build(p, cfg.seed, s, f.clientFor, open, closed)
	e.sender = newSender(f.entry, g)
	e.sender.sloMs = s.sloMs
	warm := e.sender.run(e.stream.warm, 0, s.sticky, time.Minute)
	if warm.good != warm.sent {
		_ = e.close()
		return nil, fmt.Errorf("%s: warm-up: %d of %d ops did not get the golden answer", s.name, warm.sent-warm.good, warm.sent)
	}
	return e, nil
}

// setupRepeats is how often a run sets the workload up: setup_s is the
// median, and only the last set-up is kept and measured.
const setupRepeats = 3

func (s servingSpec) run(cfg runConfig) (*report, error) {
	// A shorter run warms up less (the self-test runs under a second).
	s.warm = min(s.warm, int(float64(s.warm)*cfg.seconds/4)+1)
	open := int(s.openRate * openShare * cfg.seconds)
	closed := int(s.closedRate * closedShare * cfg.seconds)
	if cfg.trace {
		return s.runTraced(cfg, open/2, closed/2)
	}
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if e, err = s.setup(cfg, open, closed); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		if i < setupRepeats-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	l, err := s.load(e)
	heap := liveHeapMB() // with the fleet still up
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r := l.report(s)
	r.add("setup_s", "s", median(setups), len(setups))
	r.add("throughput_ops_s", "ops/s", median(l.segments.throughput), l.closed.sent)
	r.add("latency_p50_ms", "ms", quantile(l.open.latency, 0.5), len(l.open.latency))
	r.add("latency_p90_ms", "ms", quantile(l.open.latency, 0.9), len(l.open.latency))
	r.add("cpu_ms_per_op", "ms", median(l.segments.cpuMs), l.closed.sent)
	r.add("allocs_per_op", "count", median(l.segments.allocs), l.closed.sent)
	r.add("live_heap_mb", "MB", heap, 0)
	return r, nil
}

// loaded is the outcome of the two load phases and what the fleet and the
// process counted meanwhile.
type loaded struct {
	open, closed phase
	use          usage      // process counters over the closed loop
	fleet        fleetStats // fleet counters over both phases
	segments     struct {   // per closed-loop segment
		throughput, cpuMs, allocs []float64 // ops/s, CPU ms per op, mallocs per op
	}
}

// load runs the open loop, then the closed loop.
func (s servingSpec) load(e *env) (*loaded, error) {
	before, err := e.fleet.stats(e.sender.client)
	if err != nil {
		return nil, err
	}
	l := &loaded{}
	l.open = e.sender.run(e.stream.open, s.openRate, s.sticky, planned(len(e.stream.open), s.openRate))
	ops := e.stream.closed
	start := readUsage()
	for i := 0; i < s.segments; i++ {
		seg := ops[i*len(ops)/s.segments : (i+1)*len(ops)/s.segments]
		u0 := readUsage()
		p := e.sender.run(seg, 0, s.sticky, planned(len(seg), s.closedRate))
		u := readUsage().since(u0)
		if p.sent > 0 {
			n := float64(p.sent)
			l.segments.throughput = append(l.segments.throughput, n/seconds(p.elapsed))
			l.segments.cpuMs = append(l.segments.cpuMs, millis(u.cpu)/n)
			l.segments.allocs = append(l.segments.allocs, float64(u.mallocs)/n)
		}
		l.closed.merge(p)
	}
	l.use = readUsage().since(start)
	after, err := e.fleet.stats(e.sender.client)
	if err != nil {
		return nil, err
	}
	l.fleet = after.since(before)
	return l, nil
}

func planned(ops int, rate float64) time.Duration {
	return time.Duration(phaseCap * float64(ops) / rate * float64(time.Second))
}

// report opens the workload's report with what every run states: ops
// attempted and failed, and whether the answers were the right ones. A
// degraded or changed answer counts as failed — a change must not buy
// speed by shedding to the popular fallback or by answering differently.
func (l *loaded) report(s servingSpec) *report {
	t := l.open.tally
	t.add(l.closed.tally)
	r := &report{workload: s.name, attempted: t.sent, failed: t.sent - t.good}
	for _, ph := range []struct {
		name string
		p    phase
	}{{"open", l.open}, {"closed", l.closed}} {
		r.notef("%s loop: sent %d, succeeded %d, failed %d (items: %d failed, %d degraded, %d not golden) in %.2fs",
			ph.name, ph.p.sent, ph.p.good, ph.p.sent-ph.p.good, ph.p.failed, ph.p.degraded, ph.p.wrong, seconds(ph.p.elapsed))
		if ph.p.cut {
			r.notef("%s loop: cut off by its time cap before the last op", ph.name)
		}
	}
	hitShare := ratio(float64(l.fleet.cacheHits), float64(l.fleet.cacheHits+l.fleet.cacheMisses))
	r.notef("fleet: cache hit share %.4f (%d hits, %d misses, %d evictions), %d shed, %d degraded",
		hitShare, l.fleet.cacheHits, l.fleet.cacheMisses, l.fleet.evictions, l.fleet.shed, l.fleet.degraded)
	switch s.name {
	case "cold_model":
		r.gate("zero cache hits", l.fleet.cacheHits == 0, true)
	case "hot_session":
		r.gate("cache hit share >= 0.99", hitShare >= 0.99, true)
	case "drift_batch":
		// The drift needs a few hundred ops to fill and churn the caches.
		steady := l.open.sent+l.closed.sent >= 150
		r.gate("item cache hit share in 0.70-0.80", hitShare >= 0.70 && hitShare <= 0.80, steady)
		r.gate("cache evictions > 0", l.fleet.evictions > 0, steady)
	}
	return r
}
