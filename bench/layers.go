package main

import (
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/modeldir"
	"repro/internal/reccache"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// perLayer lists every per-layer metric BENCHMARK.json declares, in its
// order. A traced run reports all of them for every workload: one a
// workload has no use for (the gateway's on cold_model, every serving
// layer's on offline_train) reads 0.
var perLayer = []metric{
	{name: "gateway.self_us", unit: "us"},
	{name: "gateway.ring_lookup_ns", unit: "ns"},
	{name: "gateway.proxied", unit: "count"},
	{name: "gateway.retried", unit: "count"},
	{name: "gateway.collapsed", unit: "count"},
	{name: "gateway.exhausted", unit: "count"},
	{name: "server.self_us", unit: "us"},
	{name: "server.req_bytes_per_op", unit: "B"},
	{name: "server.resp_bytes_per_op", unit: "B"},
	{name: "servepool.self_us", unit: "us"},
	{name: "servepool.batch_mean_items", unit: "count"},
	{name: "servepool.batch_wait_us", unit: "us"},
	{name: "servepool.batch_window_share", unit: "ratio"},
	{name: "servepool.pool_queue_high_water", unit: "count"},
	{name: "servepool.pool_executed_per_op", unit: "count"},
	{name: "overload.shed", unit: "count"},
	{name: "overload.soft_timeouts", unit: "count"},
	{name: "overload.model_failures", unit: "count"},
	{name: "reccache.self_us", unit: "us"},
	{name: "reccache.hit_share", unit: "ratio"},
	{name: "reccache.evictions", unit: "count"},
	{name: "reccache.get_ns", unit: "ns"},
	{name: "reccache.put_ns", unit: "ns"},
	{name: "tokenizer.self_us", unit: "us"},
	{name: "tokenizer.tokens_per_query", unit: "count"},
	{name: "sqlparse.self_us", unit: "us"},
	{name: "sqlparse.allocs_per_query", unit: "count"},
	{name: "sqllex.self_us", unit: "us"},
	{name: "sqllex.mb_s", unit: "MB/s"},
	{name: "core.templates_us", unit: "us"},
	{name: "core.fragments_us", unit: "us"},
	{name: "core.fragments_b8_us_per_item", unit: "us"},
	{name: "core.infer_ms_per_query", unit: "ms"},
	{name: "core.prepare_s", unit: "s"},
	{name: "classify.predict_us", unit: "us"},
	{name: "classify.fit_s", unit: "s"},
	{name: "decode.beam_us", unit: "us"},
	{name: "decode.steps_per_query", unit: "count"},
	{name: "decode.us_per_step", unit: "us"},
	{name: "seq2seq.encode_us", unit: "us"},
	{name: "seq2seq.src_tokens_per_query", unit: "count"},
	{name: "tensor.gemm_calls_per_op", unit: "count"},
	{name: "tensor.gemm_parallel_share", unit: "ratio"},
	{name: "tensor.pool_miss_share", unit: "ratio"},
	{name: "tensor.matmul_gflops", unit: "GFLOP/s"},
	{name: "tensor.matmul_at_gflops", unit: "GFLOP/s"},
	{name: "tensor.matmul_bt_gflops", unit: "GFLOP/s"},
	{name: "train.seq2seq_s", unit: "s"},
	{name: "train.step_p50_ms", unit: "ms"},
	{name: "train.pairs_per_s", unit: "1/s"},
	{name: "train.val_loss", unit: "nats"},
	{name: "train.template_top1_acc", unit: "ratio"},
	{name: "modeldir.load_ms", unit: "ms"},
	{name: "modeldir.save_ms", unit: "ms"},
	{name: "synth.generate_ms", unit: "ms"},
	{name: "runtime.gc_cycles_per_kop", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.alloc_kb_per_op", unit: "KB"},
	{name: "runtime.peak_rss_mb", unit: "MB"},
	{name: "client.open_sent", unit: "count"},
	{name: "client.open_ok", unit: "count"},
	{name: "client.open_failed", unit: "count"},
	{name: "client.closed_sent", unit: "count"},
	{name: "client.closed_ok", unit: "count"},
	{name: "client.closed_failed", unit: "count"},
	{name: "client.failed_share", unit: "ratio"},
	{name: "client.degraded_share", unit: "ratio"},
	{name: "client.golden_match_share", unit: "ratio"},
	{name: "client.latency_p99_ms", unit: "ms"},
	{name: "client.lateness_p99_us", unit: "us"},
	{name: "client.slo_met_share", unit: "ratio"},
	{name: "trace.request_p50_us", unit: "us"},
	{name: "trace.ladder_residual_share", unit: "ratio"},
	{name: "trace.model_share", unit: "ratio"},
	{name: "trace.frontend_share", unit: "ratio"},
}

// Layers grouped for the separation check: the model side of a request
// and its front end. The engine and the cache belong to neither.
var (
	modelLayers    = []string{"core.templates", "core.fragments", "classify.predict", "decode.beam", "seq2seq.encode"}
	frontendLayers = []string{"gateway", "server", "tokenizer", "sqlparse", "sqllex"}
	otherLayers    = []string{"servepool", "reccache"}
)

// layerValues collects per-layer values by name; addLayers reports them in
// BENCHMARK.json's order, 0 for the ones the workload did not set.
type layerValues map[string]float64

func (r *report) addLayers(v layerValues) {
	for _, m := range perLayer {
		r.add(m.name, m.unit, v[m.name], 0)
	}
}

// runTraced is the traced pass of a serving workload: a shorter load for
// the counters, the replay ladder for the timings, then a few timed calls
// into single layers.
func (s servingSpec) runTraced(cfg runConfig, open, closed int) (*report, error) {
	e, err := s.setup(cfg, open, closed)
	if err != nil {
		return nil, err
	}
	l, err := s.load(e)
	ring := ringLookupNs(e)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r := l.report(s)
	r.traced = true
	n := min(int(s.sampleRate*cfg.seconds), len(e.stream.open))
	tr, counts, err := s.ladder(cfg, e.pool, e.golden, n)
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.outDir, s.name); err != nil {
		return nil, err
	}
	v := layerValues{"gateway.ring_lookup_ns": ring, "synth.generate_ms": e.synthMs,
		"modeldir.load_ms": ratio(e.loadMs, float64(s.topo.replicas))}
	l.layers(v, r)
	budgetLayers(v, r, tr.selfTimes(n), s.topo.gateway)
	counts.layers(v)
	if err := s.timedLayers(cfg, v, counts); err != nil {
		return nil, err
	}
	r.addLayers(v)
	return r, nil
}

// layers reports what the load phases counted.
func (l *loaded) layers(v layerValues, r *report) {
	ops := float64(l.open.sent + l.closed.sent)
	f := l.fleet
	v["gateway.proxied"] = float64(f.gw.Proxied)
	v["gateway.retried"] = float64(f.gw.Retried)
	v["gateway.collapsed"] = float64(f.gw.Collapsed)
	v["gateway.exhausted"] = float64(f.gw.Exhausted)
	v["server.req_bytes_per_op"] = ratio(float64(l.open.reqBytes+l.closed.reqBytes), ops)
	v["server.resp_bytes_per_op"] = ratio(float64(l.open.respBytes+l.closed.respBytes), ops)
	v["servepool.batch_mean_items"] = ratio(float64(f.batchItems), float64(f.batches))
	v["servepool.batch_wait_us"] = ratio(float64(f.batchWaitNs)/1e3, float64(f.batchItems))
	v["servepool.batch_window_share"] = ratio(float64(f.windowHits), float64(f.batches))
	v["servepool.pool_queue_high_water"] = float64(f.queueHighWater)
	v["servepool.pool_executed_per_op"] = ratio(float64(f.poolExecuted), ops)
	v["overload.shed"] = float64(f.shed)
	v["overload.soft_timeouts"] = float64(f.softTimeouts)
	v["overload.model_failures"] = float64(f.modelFailures)
	v["reccache.hit_share"] = ratio(float64(f.cacheHits), float64(f.cacheHits+f.cacheMisses))
	v["reccache.evictions"] = float64(f.evictions)

	c := float64(l.closed.sent)
	gemms := float64(l.use.gemm.SerialGEMM + l.use.gemm.ParallelGEMM)
	v["tensor.gemm_calls_per_op"] = ratio(gemms, c)
	v["tensor.gemm_parallel_share"] = ratio(float64(l.use.gemm.ParallelGEMM), gemms)
	v["tensor.pool_miss_share"] = ratio(float64(l.use.pool.Misses), float64(l.use.pool.Gets))
	v["runtime.gc_cycles_per_kop"] = ratio(float64(l.use.gcCycles)*1000, c)
	v["runtime.gc_pause_ms"] = millis(l.use.gcPause)
	v["runtime.alloc_kb_per_op"] = ratio(float64(l.use.bytes)/1024, c)
	v["runtime.peak_rss_mb"] = peakRSSMB()

	items := float64(l.open.items + l.closed.items)
	v["client.open_sent"] = float64(l.open.sent)
	v["client.open_ok"] = float64(l.open.good)
	v["client.open_failed"] = float64(l.open.sent - l.open.good)
	v["client.closed_sent"] = float64(l.closed.sent)
	v["client.closed_ok"] = float64(l.closed.good)
	v["client.closed_failed"] = float64(l.closed.sent - l.closed.good)
	v["client.failed_share"] = ratio(float64(l.open.failed+l.closed.failed), items)
	v["client.degraded_share"] = ratio(float64(l.open.degraded+l.closed.degraded), items)
	answered := items - float64(l.open.failed+l.closed.failed)
	v["client.golden_match_share"] = ratio(answered-float64(l.open.degraded+l.closed.degraded+l.open.wrong+l.closed.wrong), answered)
	v["client.latency_p99_ms"] = quantile(l.open.latency, 0.99)
	v["client.lateness_p99_us"] = quantile(l.open.lateness, 0.99)
	v["client.slo_met_share"] = ratio(float64(l.open.sloMet), float64(l.open.sent))
	if late, p50 := v["client.lateness_p99_us"], quantile(l.open.latency, 0.5)*1000; late > 0.2*p50 {
		r.notef("check: the generator ran late (p99 %.0f us against a p50 latency of %.0f us): open-loop latencies partly measure the generator", late, p50)
	}
}

// budgetLayers turns the ladder's spans into the latency budget: each
// layer's median self time, the median traced request, how far the parts
// are from summing to it, and the model/front-end split.
func budgetLayers(v layerValues, r *report, b budget, hasGateway bool) {
	top := "server"
	if hasGateway {
		top = "gateway"
	}
	request := median(b.total[top])
	v["trace.request_p50_us"] = request
	self := func(layers []string) float64 {
		sum := 0.0
		for _, name := range layers {
			sum += max(0, median(b.self[name]))
		}
		return sum
	}
	model, frontend, other := self(modelLayers), self(frontendLayers), self(otherLayers)
	sum := model + frontend + other
	residual := sum - request
	if residual < 0 {
		residual = -residual
	}
	v["trace.ladder_residual_share"] = ratio(residual, request)
	v["trace.model_share"] = ratio(model, sum)
	v["trace.frontend_share"] = ratio(frontend, sum)
	for _, name := range append(append([]string{}, frontendLayers...), otherLayers...) {
		v[name+".self_us"] = max(0, median(b.self[name]))
	}
	// The model spans read better per run than per request: most hot and
	// drift requests never reach the model, and their zeros would hide it.
	ran := func(name string) float64 {
		var xs []float64
		for _, d := range b.total[name] {
			if d > 0 {
				xs = append(xs, d)
			}
		}
		return median(xs)
	}
	v["core.templates_us"] = ran("core.templates")
	v["core.fragments_us"] = ran("core.fragments")
	v["classify.predict_us"] = ran("classify.predict")
	v["decode.beam_us"] = ran("decode.beam")
	v["seq2seq.encode_us"] = ran("seq2seq.encode")

	// A timing check is a note, not part of correct: it depends on how
	// quiet the machine was, not on what the program answered.
	r.notef("traced request p50 %.1f us; self times sum to %.1f us (residual %.3f); model %.3f, front end %.3f of the budget",
		request, sum, v["trace.ladder_residual_share"], v["trace.model_share"], v["trace.frontend_share"])
	if v["trace.ladder_residual_share"] > 0.10 {
		r.notef("check: ladder residual above 0.10: the self times are not a budget for this run")
	}
}

func (c *leafCounts) layers(v layerValues) {
	v["tokenizer.tokens_per_query"] = ratio(float64(c.tokens), float64(c.queries))
	v["seq2seq.src_tokens_per_query"] = ratio(float64(c.srcTokens), float64(c.modelRuns))
	v["decode.steps_per_query"] = ratio(float64(c.steps), float64(c.modelRuns))
	v["decode.us_per_step"] = ratio(c.beamUs, float64(c.steps))
}

// ringLookupNs times Ring.Candidates over the client ids of the stream.
func ringLookupNs(e *env) float64 {
	if e.fleet.gw == nil {
		return 0
	}
	ring := e.fleet.gw.Ring()
	ops := e.stream.open
	const rounds = 20000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		ring.Candidates(ops[i%len(ops)].client)
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// timedLayers times a few layers' public functions directly, on the
// statements, keys and shapes the traced sample produced.
func (s servingSpec) timedLayers(cfg runConfig, v layerValues, c *leafCounts) error {
	// Lexer throughput and parser allocations over the sample's statements.
	bytes := 0
	t0 := time.Now()
	for _, sql := range c.statements {
		_, _ = sqllex.Tokenize(sql)
		bytes += len(sql)
	}
	v["sqllex.mb_s"] = ratio(float64(bytes)/1e6, seconds(time.Since(t0)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, sql := range c.statements {
		arena := sqlast.SharedArenas.Get()
		_, _ = sqlparse.ParseArena(sql, arena)
		sqlast.SharedArenas.Put(arena)
	}
	runtime.ReadMemStats(&m1)
	v["sqlparse.allocs_per_query"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(c.statements)))

	// The cache on the workload's own keys: puts first (evicting as the
	// replica's capacity makes them), then gets.
	rec, err := modeldir.Load(filepath.Join(cfg.dataDir, "model"), 0)
	if err != nil {
		return err
	}
	cache := reccache.New(s.topo.cacheEntries())
	t0 = time.Now()
	for _, k := range c.keys {
		cache.Put(k, struct{}{})
	}
	v["reccache.put_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(c.keys)))
	t0 = time.Now()
	for _, k := range c.keys {
		cache.Get(k)
	}
	v["reccache.get_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(c.keys)))

	// The batched fragment search at batch 8, per item.
	distinct := map[string]bool{}
	var srcs [][]int
	for _, sql := range c.statements {
		if toks, err := tokenizer.Tokenize(sql); err == nil && !distinct[sql] && len(srcs) < 16 {
			distinct[sql] = true
			srcs = append(srcs, rec.Vocab.Encode(toks, true))
		}
	}
	items := 0
	t0 = time.Now()
	for i := 0; i+8 <= len(srcs); i += 8 {
		ns := []int{topN, topN, topN, topN, topN, topN, topN, topN}
		opts := make([]core.NFragmentsOptions, 8)
		for j := range opts {
			opts[j] = core.DefaultNFragmentsOptions()
		}
		rec.NFragmentsFromTokensBatch(srcs[i:i+8], ns, opts)
		items += 8
	}
	v["core.fragments_b8_us_per_item"] = ratio(micros(time.Since(t0)), float64(items))

	gemmLayers(v, int(v["seq2seq.src_tokens_per_query"]), rec.Vocab.Size())
	return nil
}

// gemmLayers times the three GEMM kernels at the model's output-projection
// shape, T x 32 by 32 x vocab, forward and both backward forms. The rates
// are computed: 2*T*32*vocab floating-point operations per call, over the
// measured time.
func gemmLayers(v layerValues, t, vocab int) {
	if t <= 0 {
		t = 24 // a typical encoder input when the sample ran no model
	}
	const d = trainDModel
	h, w, logits := tensor.New(t, d), tensor.New(d, vocab), tensor.New(t, vocab)
	dw, dh := tensor.New(d, vocab), tensor.New(t, d)
	for _, x := range []*tensor.Tensor{h, w, logits} {
		x.Fill(0.5)
	}
	flops := 2 * float64(t) * d * float64(vocab)
	rate := func(kernel func()) float64 {
		const calls = 400
		kernel()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			kernel()
		}
		return ratio(flops*calls/1e9, seconds(time.Since(t0)))
	}
	v["tensor.matmul_gflops"] = rate(func() { tensor.MatMulInto(logits, h, w, false) })
	v["tensor.matmul_at_gflops"] = rate(func() { tensor.MatMulATInto(dw, h, logits, false) })
	v["tensor.matmul_bt_gflops"] = rate(func() { tensor.MatMulBTInto(dh, logits, w, false) })
}

// trainLayers is offline_train's traced pass: spans for the stages of the
// run and for every step, and the training-side layer numbers.
func trainLayers(cfg runConfig, r *report, ts *trainSetup, t *trained) error {
	tr := &tracer{t0: t.trainStart}
	at := func(name, parent string, start time.Time, d time.Duration) {
		tr.spans = append(tr.spans, span{Name: name, Parent: parent,
			Start: int64(start.Sub(tr.t0)), End: int64(start.Sub(tr.t0) + d)})
	}
	seq, cls := t.rec.SeqResult.TrainTime, t.rec.ClsResult.TrainTime
	at("core.prepare", "", t.trainStart.Add(-time.Duration(ts.prepareMs*float64(time.Millisecond))), time.Duration(ts.prepareMs*float64(time.Millisecond)))
	at("core.train", "", t.trainStart, t.elapsed)
	at("train.seq2seq", "core.train", t.trainStart, seq)
	at("classify.fit", "core.train", t.trainEnd.Add(-cls), cls)
	stepSpans := func(name, parent string, start time.Time, steps []float64) {
		for i, ms := range steps {
			d := time.Duration(ms * float64(time.Millisecond))
			tr.spans = append(tr.spans, span{Req: i, Name: name, Parent: parent,
				Start: int64(start.Sub(tr.t0)), End: int64(start.Sub(tr.t0) + d)})
			start = start.Add(d)
		}
	}
	stepSpans("train.step", "train.seq2seq", t.trainStart, t.seqSteps)
	stepSpans("classify.step", "classify.fit", t.trainEnd.Add(-cls), t.clsSteps)
	at("modeldir.save", "", t.trainEnd, time.Duration(t.saveMs*float64(time.Millisecond)))
	infer := 0.0
	for _, ms := range t.inferMs {
		infer += ms
	}
	at("core.infer", "", t.trainEnd.Add(time.Duration((t.saveMs+t.loadMs)*float64(time.Millisecond))), time.Duration(infer*float64(time.Millisecond)))
	if err := tr.write(cfg.outDir, "offline_train"); err != nil {
		return err
	}

	steps := float64(len(t.seqSteps) + len(t.clsSteps))
	gemms := float64(t.use.gemm.SerialGEMM + t.use.gemm.ParallelGEMM)
	v := layerValues{
		"core.prepare_s":             ts.prepareMs / 1000,
		"core.infer_ms_per_query":    mean(t.inferMs),
		"classify.fit_s":             seconds(cls),
		"train.seq2seq_s":            seconds(seq),
		"train.step_p50_ms":          median(t.seqSteps),
		"train.pairs_per_s":          ratio(float64(t.pairs*trainEpochs), seconds(seq)),
		"train.val_loss":             t.valLoss,
		"train.template_top1_acc":    t.top1Acc,
		"modeldir.save_ms":           t.saveMs,
		"modeldir.load_ms":           t.loadMs,
		"synth.generate_ms":          ts.synthMs,
		"tensor.gemm_calls_per_op":   ratio(gemms, steps),
		"tensor.gemm_parallel_share": ratio(float64(t.use.gemm.ParallelGEMM), gemms),
		"tensor.pool_miss_share":     ratio(float64(t.use.pool.Misses), float64(t.use.pool.Gets)),
		"runtime.gc_cycles_per_kop":  ratio(float64(t.use.gcCycles)*1000, steps),
		"runtime.gc_pause_ms":        millis(t.use.gcPause),
		"runtime.alloc_kb_per_op":    ratio(float64(t.use.bytes)/1024, steps),
		"runtime.peak_rss_mb":        peakRSSMB(),
		"client.closed_sent":         steps,
		"client.closed_ok":           steps,
		"client.golden_match_share":  1,
		"client.slo_met_share":       1,
		"client.latency_p99_ms":      quantile(append(append([]float64(nil), t.seqSteps...), t.clsSteps...), 0.99),
		"trace.request_p50_us":       median(t.seqSteps) * 1000,
	}
	if !r.correct() {
		v["client.closed_ok"], v["client.closed_failed"], v["client.failed_share"], v["client.golden_match_share"] = 0, steps, 1, 0
	}
	// The lexer on the training log, which core.Prepare parses whole.
	bytes, tokens, queries := 0, 0, ts.ds.Workload.Queries()
	t0 := time.Now()
	for _, q := range queries {
		_, _ = sqllex.Tokenize(q.SQL)
		bytes += len(q.SQL)
		tokens += len(q.Tokens)
	}
	v["sqllex.mb_s"] = ratio(float64(bytes)/1e6, seconds(time.Since(t0)))
	v["tokenizer.tokens_per_query"] = ratio(float64(tokens), float64(len(queries)))
	gemmLayers(v, 0, t.rec.Vocab.Size())
	r.addLayers(v)
	return nil
}
