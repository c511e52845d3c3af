package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the generator's concurrency: as many client goroutines and
// keep-alive connections as the box has cores, never more.
func clients() int { return runtime.GOMAXPROCS(0) }

func newHTTPClient() *http.Client {
	n := clients()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
	}}
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// answer is one recommendation as it comes back, single or batch item.
type answer struct {
	Templates []string            `json:"templates"`
	Fragments map[string][]string `json:"fragments"`
	Degraded  bool                `json:"degraded"`
	Error     string              `json:"error"`
}

// verdict classifies one answered request.
type verdict int

const (
	ok       verdict = iota
	failed           // no valid answer: transport, status, undecodable, empty templates, item error
	degraded         // a 200 from the popular fallback
	changed          // a valid full-quality answer that is not the golden one
)

// judge checks raw (a /v1/recommend body, or one element of a batch's
// results) against the golden hash for req. The golden match is one hash
// of the bytes; only a mismatch pays for decoding, to say why.
func judge(g golden, req request, raw []byte) verdict {
	if want, known := g[req.key()]; known && hashBytes(bytes.TrimSpace(raw)) == want {
		return ok
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil || a.Error != "" || len(a.Templates) == 0 {
		return failed
	}
	if a.Degraded {
		return degraded
	}
	return changed
}

// tally counts verdicts; a batch op contributes one verdict per item and
// counts as answered only if every item is ok.
type tally struct {
	sent, good              int
	failed, degraded, wrong int // requests (items for a batch), by verdict
	items                   int
	reqBytes, respBytes     int
	sloMet                  int // ops answered in full within the workload's latency limit
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.good += o.good
	t.failed += o.failed
	t.degraded += o.degraded
	t.wrong += o.wrong
	t.items += o.items
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.sloMet += o.sloMet
}

// sender issues ops against one base URL and judges the answers.
type sender struct {
	client *http.Client
	base   string
	route  func(o *op) string // when set, picks the base URL per op
	golden golden
	sloMs  float64
	buf    []bytes.Buffer // one response buffer per client goroutine
}

func newSender(base string, g golden) *sender {
	return &sender{client: newHTTPClient(), base: base, golden: g, buf: make([]bytes.Buffer, clients())}
}

// do sends one op from client goroutine w and returns its verdicts.
func (s *sender) do(w int, o *op) tally {
	t := tally{sent: 1, items: len(o.reqs), reqBytes: len(o.body)}
	base := s.base
	if s.route != nil {
		base = s.route(o)
	}
	raw, status, err := s.post(w, base, o)
	t.respBytes = len(raw)
	if err != nil || status != http.StatusOK {
		t.failed = len(o.reqs)
		return t
	}
	parts, err := answers(o, raw)
	if err != nil {
		t.failed = len(o.reqs)
		return t
	}
	for i, part := range parts {
		switch judge(s.golden, o.reqs[i], part) {
		case failed:
			t.failed++
		case degraded:
			t.degraded++
		case changed:
			t.wrong++
		}
	}
	if t.failed+t.degraded+t.wrong == 0 {
		t.good = 1
	}
	return t
}

// answers splits a 200 body into the raw answer of each request of o.
func answers(o *op, raw []byte) ([][]byte, error) {
	if o.path != batchPath {
		return [][]byte{raw}, nil
	}
	var br struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(o.reqs) {
		return nil, fmt.Errorf("batch of %d answered with %d results", len(o.reqs), len(br.Results))
	}
	parts := make([][]byte, len(br.Results))
	for i, r := range br.Results {
		parts[i] = r
	}
	return parts, nil
}

// post sends o to base and returns the response body, valid until client
// goroutine w posts again.
func (s *sender) post(w int, base string, o *op) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.client != "" {
		req.Header.Set("X-Client-ID", o.client)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	buf := &s.buf[w]
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	_ = resp.Body.Close()
	return buf.Bytes(), resp.StatusCode, err
}

// phase is the outcome of one load phase.
type phase struct {
	tally
	elapsed  time.Duration
	latency  []float64 // ms per op; open loop: from the op's due time
	lateness []float64 // µs the generator started an op after it was due
	cut      bool      // the time cap ended the phase before its last op
}

// merge appends a later segment of the same phase.
func (p *phase) merge(o phase) {
	p.tally.add(o.tally)
	p.elapsed += o.elapsed
	p.latency = append(p.latency, o.latency...)
	p.lateness = append(p.lateness, o.lateness...)
	p.cut = p.cut || o.cut
}

// run drives ops through the sender with one goroutine per client.
// rate > 0 is an open loop: op i is due at start + i/rate whether or not
// earlier ops have finished, and is timed from that due time, so a stall
// shows in the ops queued behind it. rate == 0 is a closed loop: each
// client sends its next op when the previous one returns. sticky pins
// op i to client i%clients — drift_batch uses it so that one client
// goroutine talks to one replica, whose cache then sees the same request
// sequence on every run — otherwise clients take the next unsent op. The phase ends early once
// limit has passed; ops not started by then are not attempted.
func (s *sender) run(ops []op, rate float64, sticky bool, limit time.Duration) phase {
	n := clients()
	per := make([]phase, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(limit)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &per[w]
			for k := 0; ; k++ {
				i := int(next.Add(1)) - 1
				if sticky {
					i = w + k*n
				}
				if i >= len(ops) {
					return
				}
				begin := time.Now()
				if begin.After(deadline) {
					p.cut = true
					return
				}
				due := begin
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					waitUntil(due)
					begin = time.Now()
					p.lateness = append(p.lateness, micros(begin.Sub(due)))
				}
				t := s.do(w, &ops[i])
				ms := millis(time.Since(due))
				if t.good == 1 && ms <= s.sloMs {
					t.sloMet = 1
				}
				p.tally.add(t)
				p.latency = append(p.latency, ms)
			}
		}(w)
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range per {
		p.elapsed = 0
		out.merge(p)
	}
	return out
}

// waitUntil blocks the calling client goroutine until t in a nanosleep
// system call, not on a Go timer. While every scheduler thread is idle a
// Go timer fires with millisecond granularity, which is ten times a
// cached request's latency; and spinning to t instead keeps a thread busy,
// so the servers' network readiness is polled late. Asleep in the kernel
// the client behaves like the separate process it stands for: it wakes
// on time and leaves the scheduler to the system under test.
func waitUntil(t time.Time) {
	// The kernel wakes a sleeper some tens of microseconds late (its timer
	// slack); aiming that much early and yielding the rest keeps the start
	// within a few microseconds of t.
	const early = 70 * time.Microsecond
	for d := time.Until(t) - early; d > 0; d = time.Until(t) - early {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
