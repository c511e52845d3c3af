package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point. The traced
// pass replays each sampled request against progressively shallower entry
// points (gateway front door, replica front door, engine, then the leaf
// functions), so the spans of one request are measured one after another,
// not nested in one execution; Parent says which span's work a span is
// part of, and Req ties a request's spans together.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	// Concurrent marks children their parent runs side by side (the
	// template and fragment halves on the worker pool): together they
	// cover only as much of the parent as the longest of them.
	Concurrent bool `json:"concurrent,omitempty"`
}

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs fn as one span.
func (t *tracer) time(req int, name, parent string, concurrent bool, fn func()) {
	start := time.Since(t.t0)
	fn()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		Start: int64(start), End: int64(time.Since(t.t0)), Concurrent: concurrent})
}

// write stores the spans as trace-<workload>.jsonl under dir.
func (t *tracer) write(dir, workload string) error {
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// budget is the traced pass reduced to per-layer numbers, all in µs.
type budget struct {
	total map[string][]float64 // per request: summed duration of the layer's spans
	self  map[string][]float64 // per request: that, minus what its children cover
}

// selfTimes computes, per request and span name, the span's duration
// minus the part its children cover: sequential children add up,
// concurrent ones count as the longest. A request that has no span of a
// name contributes 0 for it, so medians are over all sampled requests.
// Parent and children are separate replays, so one request's difference
// can come out negative; it is kept, because clamping each would bias the
// median of a small layer under a large noisy child upwards.
func (t *tracer) selfTimes(requests int) budget {
	type key struct {
		req  int
		name string
	}
	total := map[key]float64{}
	seq := map[key]float64{}
	par := map[key]float64{}
	names := map[string]bool{}
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e3
		total[key{s.Req, s.Name}] += d
		names[s.Name] = true
		if s.Parent == "" {
			continue
		}
		pk := key{s.Req, s.Parent}
		if s.Concurrent {
			par[pk] = max(par[pk], d)
		} else {
			seq[pk] += d
		}
	}
	b := budget{total: map[string][]float64{}, self: map[string][]float64{}}
	for name := range names {
		tot := make([]float64, requests)
		self := make([]float64, requests)
		for r := 0; r < requests; r++ {
			k := key{r, name}
			tot[r] = total[k]
			self[r] = total[k] - seq[k] - par[k]
		}
		b.total[name], b.self[name] = tot, self
	}
	return b
}
