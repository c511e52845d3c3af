package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/modeldir"
	"repro/internal/overload"
	"repro/internal/reccache"
	"repro/internal/seq2seq"
	"repro/internal/servepool"
	"repro/internal/server"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
	"repro/internal/tokenizer"
)

// The replay ladder. Each rung is an independent stack built from its own
// modeldir.Load of the same artifact, warmed with the same warm-up ops and
// then sent the same sample one request at a time, so every rung's caches
// go through the same hits and misses:
//
//	gateway      POST to the gateway                     (gateway workloads only)
//	server       POST to the replica the gateway would pick
//	servepool    Engine.Recommend / RecommendBatch
//	leaves       tokenizer.Tokenize, cache probes, the two model halves
//	             and inside them PredictTopN, Beam, Model.Encode;
//	             sqlparse and sqllex below the tokenizer
//
// A layer's self time is its span minus what its children cover.

// leafCounts is what the leaf rung counts while it replays.
type leafCounts struct {
	queries    int      // statements tokenized
	tokens     int      // tokens they produced
	modelRuns  int      // requests whose fragment half ran the model
	srcTokens  int      // encoder input length over those
	steps      int      // decode steps over those (longest hypothesis + EOS)
	beamUs     float64  // summed decode time over those
	statements []string // every statement tokenized, for the lexer and parser timings
	keys       []string // every cache key probed, in order
}

// ladder runs every rung for the first n ops of the open-loop stream.
func (s servingSpec) ladder(cfg runConfig, p *pool, g golden, n int) (*tracer, *leafCounts, error) {
	tr := newTracer()
	model := filepath.Join(cfg.dataDir, "model")
	parent := ""
	if s.topo.gateway {
		if err := s.httpRung(cfg, p, g, tr, model, "gateway", "", s.topo, n); err != nil {
			return nil, nil, err
		}
		parent = "gateway"
	}
	direct := s.topo
	direct.gateway = false
	if err := s.httpRung(cfg, p, g, tr, model, "server", parent, direct, n); err != nil {
		return nil, nil, err
	}
	if err := s.engineRung(cfg, p, tr, model, n); err != nil {
		return nil, nil, err
	}
	counts, err := s.leafRung(cfg, p, tr, model, n)
	return tr, counts, err
}

// httpRung sends the sample over HTTP to a fleet of the given topology.
func (s servingSpec) httpRung(cfg runConfig, p *pool, g golden, tr *tracer, model, name, parent string, topo topology, n int) error {
	f, err := startFleet(model, topo)
	if err != nil {
		return err
	}
	st := s.build(p, cfg.seed, s, f.clientFor, n, 0)
	snd := newSender(f.entry, g)
	if !topo.gateway {
		snd.route = func(o *op) string { return f.replicas[o.lane%len(f.replicas)].url }
	}
	bad := 0
	warm := snd.run(st.warm, 0, s.sticky, time.Minute)
	bad += warm.sent - warm.good
	for i := range st.open {
		tr.time(i, name, parent, false, func() {
			t := snd.do(0, &st.open[i])
			bad += t.sent - t.good
		})
	}
	snd.client.CloseIdleConnections()
	if err := f.stop(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%s: traced %s rung: %d ops did not get the golden answer", s.name, name, bad)
	}
	return nil
}

// newEngine composes an engine as server.NewWithConfig does for a replica.
func newEngine(rec *core.Recommender, t topology) *servepool.Engine {
	cfg := serveConfig(rec, t, "")
	return servepool.NewEngineWithOptions(rec, reccache.New(cfg.CacheSize), servepool.EngineOptions{
		Queue: cfg.MaxQueue,
		Admission: overload.NewAdmission(overload.AdmissionConfig{
			MaxInFlight: cfg.MaxInFlight,
			RetryAfter:  server.DefaultRetryAfter,
		}),
		Breaker: overload.NewBreaker(overload.BreakerConfig{
			FailureRatio: cfg.BreakerRatio,
			Clock:        time.Now,
			Seed:         1,
		}),
		Fallback:    cfg.Fallback,
		SoftTimeout: cfg.SoftTimeout,
		BatchSize:   cfg.BatchSize,
		Now:         time.Now,
	})
}

func poolRequest(r request) servepool.Request {
	return servepool.Request{SQL: r.SQL, PrevSQL: r.Prev, N: topN, Opts: core.DefaultNFragmentsOptions()}
}

// perLane runs fn over ops, one goroutine per lane, each lane in order.
func perLane(ops []op, lanes int, fn func(o *op)) {
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := range ops {
				if ops[i].lane%lanes == l {
					fn(&ops[i])
				}
			}
		}(l)
	}
	wg.Wait()
}

// engineRung calls the engines directly, one per replica.
func (s servingSpec) engineRung(cfg runConfig, p *pool, tr *tracer, model string, n int) error {
	engines := make([]*servepool.Engine, s.topo.replicas)
	for i := range engines {
		rec, err := modeldir.Load(model, 0)
		if err != nil {
			return err
		}
		engines[i] = newEngine(rec, s.topo)
		defer engines[i].Close()
	}
	st := s.build(p, cfg.seed, s, laneName, n, 0)
	var mu sync.Mutex
	bad := 0
	exec := func(o *op) {
		eng := engines[o.lane%len(engines)]
		failed := 0
		if o.path == batchPath {
			reqs := make([]servepool.Request, len(o.reqs))
			for i, r := range o.reqs {
				reqs[i] = poolRequest(r)
			}
			for _, it := range eng.RecommendBatch(context.Background(), reqs) {
				if it.Err != nil || it.Result.Degraded {
					failed++
				}
			}
		} else if res, err := eng.Recommend(context.Background(), poolRequest(o.reqs[0])); err != nil || res.Degraded {
			failed++
		}
		if failed > 0 {
			mu.Lock()
			bad += failed
			mu.Unlock()
		}
	}
	perLane(st.warm, len(engines), exec)
	for i := range st.open {
		tr.time(i, "servepool", "server", false, func() { exec(&st.open[i]) })
	}
	if bad > 0 {
		return fmt.Errorf("%s: traced servepool rung: %d requests failed or degraded", s.name, bad)
	}
	return nil
}

// laneName is clientFor for rungs with no gateway to hash the id.
func laneName(name string, _ int) string { return name }

// leaf is one replica's worth of the leaf rung: the recommender and a
// bench-owned cache of the replica's capacity, fed the replica's keys.
type leaf struct {
	rec     *core.Recommender
	cache   *reccache.Cache
	batched bool
}

// tokenized is a request after the front end, with its cache keys built
// the way the engine builds them.
type tokenized struct {
	cur, prev        []string
	tmplKey, fragKey string
}

func tokenizeRequest(r request) (tokenized, error) {
	var t tokenized
	var err error
	if t.cur, err = tokenizer.Tokenize(r.SQL); err != nil {
		return t, err
	}
	if r.Prev != "" {
		if t.prev, err = tokenizer.Tokenize(r.Prev); err != nil {
			return t, err
		}
	}
	cur, prev, n := strings.Join(t.cur, " "), strings.Join(t.prev, " "), strconv.Itoa(topN)
	t.tmplKey = "t\x00" + prev + "\x00" + cur + "\x00" + n
	t.fragKey = "f\x00" + cur + "\x00" + n
	return t, nil
}

// fill replays an op untimed: it only moves the cache through the gets
// and puts the engine would make, without running the model.
func (l *leaf) fill(o *op) error {
	for _, r := range o.reqs {
		t, err := tokenizeRequest(r)
		if err != nil {
			return err
		}
		for _, k := range []string{t.tmplKey, t.fragKey} {
			if _, ok := l.cache.Get(k); !ok {
				l.cache.Put(k, struct{}{})
			}
		}
	}
	return nil
}

// replay times the leaf calls of one op.
func (l *leaf) replay(tr *tracer, req int, o *op, c *leafCounts) error {
	var tmplMiss, fragMiss []tokenized
	for _, r := range o.reqs {
		var t tokenized
		var err error
		tr.time(req, "tokenizer", "servepool", false, func() { t, err = tokenizeRequest(r) })
		if err != nil {
			return err
		}
		for _, sql := range []string{r.SQL, r.Prev} {
			if sql == "" {
				continue
			}
			c.statements = append(c.statements, sql)
			var rendered string
			tr.time(req, "sqlparse", "tokenizer", false, func() {
				arena := sqlast.SharedArenas.Get()
				if stmt, perr := sqlparse.ParseArena(sql, arena); perr == nil {
					rendered = sqlast.RenderSQLString(stmt)
				}
				sqlast.SharedArenas.Put(arena)
			})
			// The tokenizer lexes twice: the parser lexes the statement,
			// then the canonical rendering is lexed into tokens.
			tr.time(req, "sqllex", "sqlparse", false, func() { _, _ = sqllex.Tokenize(sql) })
			tr.time(req, "sqllex", "tokenizer", false, func() { _, _ = sqllex.Tokenize(rendered) })
		}
		c.queries++
		c.tokens += len(t.cur)
		var hitT, hitF bool
		tr.time(req, "reccache", "servepool", false, func() {
			_, hitT = l.cache.Get(t.tmplKey)
			_, hitF = l.cache.Get(t.fragKey)
		})
		c.keys = append(c.keys, t.tmplKey, t.fragKey)
		if !hitT {
			tmplMiss = append(tmplMiss, t)
		}
		if !hitF {
			fragMiss = append(fragMiss, t)
		}
	}
	// The engine runs the two halves side by side on its pool; a batching
	// engine runs one batched pass per half over the op's misses.
	if len(tmplMiss) > 0 {
		tr.time(req, "core.templates", "servepool", true, func() { l.templates(tr, req, tmplMiss) })
	}
	if len(fragMiss) > 0 {
		tr.time(req, "core.fragments", "servepool", true, func() { l.fragments(tr, req, fragMiss, c) })
	}
	tr.time(req, "reccache", "servepool", false, func() {
		for _, t := range tmplMiss {
			l.cache.Put(t.tmplKey, struct{}{})
		}
		for _, t := range fragMiss {
			l.cache.Put(t.fragKey, struct{}{})
		}
	})
	return nil
}

func (l *leaf) templates(tr *tracer, req int, miss []tokenized) {
	cls := l.rec.Classifier
	srcs := make([][]int, len(miss))
	ns := make([]int, len(miss))
	for i, t := range miss {
		srcs[i] = core.EncodeContext(l.rec.Vocab, t.prev, t.cur)
		ns[i] = topN
	}
	tr.time(req, "classify.predict", "core.templates", false, func() {
		if l.batched {
			cls.PredictTopNBatch(srcs, ns)
			return
		}
		for _, src := range srcs {
			cls.PredictTopN(src, topN)
		}
	})
	l.encode(tr, req, "classify.predict", cls.Enc, srcs)
}

func (l *leaf) fragments(tr *tracer, req int, miss []tokenized, c *leafCounts) {
	opts := core.DefaultNFragmentsOptions()
	srcs := make([][]int, len(miss))
	for i, t := range miss {
		srcs[i] = l.rec.Vocab.Encode(t.cur, true)
		c.srcTokens += len(srcs[i])
	}
	var results [][]decode.Result
	t0 := time.Now()
	tr.time(req, "decode.beam", "core.fragments", false, func() {
		if l.batched {
			widths := make([]int, len(srcs))
			for i := range widths {
				widths[i] = opts.Width
			}
			results = decode.SearchBatch(l.rec.Model, srcs, l.rec.MaxGenLen, widths, make([]float64, len(srcs)))
			return
		}
		for _, src := range srcs {
			results = append(results, decode.Beam(l.rec.Model, src, l.rec.MaxGenLen, opts.Width))
		}
	})
	c.beamUs += micros(time.Since(t0))
	for _, hyps := range results {
		core.AggregateFragments(l.rec.Vocab, hyps, topN)
		longest := 0
		for _, h := range hyps {
			longest = max(longest, len(h.IDs)+1)
		}
		c.steps += min(longest, l.rec.MaxGenLen)
	}
	c.modelRuns += len(miss)
	l.encode(tr, req, "decode.beam", l.rec.Model, srcs)
}

// encode times the encoder alone, which both model halves run first.
func (l *leaf) encode(tr *tracer, req int, parent string, m seq2seq.Model, srcs [][]int) {
	tr.time(req, "seq2seq.encode", parent, false, func() {
		if l.batched {
			seq2seq.NewInferBatch(m, srcs).Close()
			return
		}
		for _, src := range srcs {
			autograd.Free(m.Encode(src, false, nil))
		}
	})
}

// leafRung replays the sample against the leaf functions.
func (s servingSpec) leafRung(cfg runConfig, p *pool, tr *tracer, model string, n int) (*leafCounts, error) {
	leaves := make([]*leaf, s.topo.replicas)
	for i := range leaves {
		rec, err := modeldir.Load(model, 0)
		if err != nil {
			return nil, err
		}
		leaves[i] = &leaf{rec: rec, cache: reccache.New(s.topo.cacheEntries()), batched: s.topo.batchSize >= 2}
	}
	st := s.build(p, cfg.seed, s, laneName, n, 0)
	for i := range st.warm {
		o := &st.warm[i]
		if err := leaves[o.lane%len(leaves)].fill(o); err != nil {
			return nil, err
		}
	}
	c := &leafCounts{}
	for i := range st.open {
		o := &st.open[i]
		if err := leaves[o.lane%len(leaves)].replay(tr, i, o, c); err != nil {
			return nil, err
		}
	}
	return c, nil
}
