package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/synth"
	"repro/internal/tokenizer"
)

// The request pool is one synthetic SDSS-sim log drawn with a fixed
// generator seed; --seed decides the order a run sends them in (for
// hot_session, which sessions it replays). Keeping the pool fixed is what lets every seed — not only
// the default one — be checked against the checked-in golden answers.
const (
	poolSeed     = 20230101
	poolSessions = 1200

	// coldPool and driftPool are how many distinct queries the two
	// model-running workloads draw from — and how many golden answers
	// -regen records for them: what a run of the run_seconds in
	// BENCHMARK.json sends. A longer run clamps its counts to them.
	coldPool  = 500
	driftPool = 460
	// hotSessions is the session prefix hot_session samples from; a run
	// replays sessions until hotPairs distinct (prev_sql, sql) pairs (fewer in
	// a run under 4 s).
	hotSessions = 160
	hotPairs    = 300

	recommendPath = "/v1/recommend"
	batchPath     = "/v1/recommend/batch"
	topN          = 3
)

// request is one recommendation as a client states it.
type request struct {
	Prev string
	SQL  string
}

// key identifies a request in the golden files: FNV-64a over both
// statements and N.
func (r request) key() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(r.Prev))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(r.SQL))
	_, _ = h.Write([]byte{0, topN})
	return h.Sum64()
}

// op is one benchmark operation, fully rendered before timing starts so
// the generator's own work during a phase is a POST and a hash.
type op struct {
	path   string
	client string // X-Client-ID
	lane   int    // gateway workloads: index of the replica the client id is homed on
	body   []byte
	reqs   []request
}

// pool is the fixed request universe.
type pool struct {
	distinct []string    // distinct normalised queries, log order
	sessions [][]request // per session, its (prev_sql, sql) requests in order
}

// buildPool generates the log and dedupes it on tokenizer output, the
// same normalisation the inference cache keys on: two spellings of one
// query must not count as two cold requests.
func buildPool() (*pool, error) {
	prof := synth.SDSSProfile()
	prof.Sessions = poolSessions
	wl := synth.Generate(prof, poolSeed)
	p := &pool{}
	seen := make(map[string]bool)
	for si, s := range wl.Sessions {
		var sess []request
		prev := ""
		for _, q := range s.Queries {
			if si < hotSessions {
				sess = append(sess, request{Prev: prev, SQL: q.SQL})
				prev = q.SQL
			}
			if len(p.distinct) >= coldPool+driftPool {
				continue
			}
			toks, err := tokenizer.Tokenize(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("pool query does not tokenize: %w", err)
			}
			k := strings.Join(toks, " ")
			if !seen[k] {
				seen[k] = true
				p.distinct = append(p.distinct, q.SQL)
			}
		}
		if si < hotSessions {
			p.sessions = append(p.sessions, sess)
		}
	}
	if len(p.distinct) < coldPool+driftPool {
		return nil, fmt.Errorf("pool has %d distinct queries, need %d", len(p.distinct), coldPool+driftPool)
	}
	return p, nil
}

// poolRequests lists every request a workload may ever send — the set
// -regen records golden answers for.
func (p *pool) poolRequests(workload string) []request {
	var out []request
	switch workload {
	case "cold_model":
		for _, sql := range p.distinct[:coldPool] {
			out = append(out, request{SQL: sql})
		}
	case "drift_batch":
		for _, sql := range p.distinct[coldPool : coldPool+driftPool] {
			out = append(out, request{SQL: sql})
		}
	case "hot_session":
		seen := make(map[request]bool)
		for _, sess := range p.sessions {
			for _, r := range sess {
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// stream is what one run sends: untimed warm-up ops, then the ops of the
// open-loop and the closed-loop phase.
type stream struct {
	warm, open, closed []op
}

func shuffled[T any](g *synth.RNG, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

type recommendBody struct {
	SQL     string `json:"sql"`
	PrevSQL string `json:"prev_sql,omitempty"`
	N       int    `json:"n"`
}

func singleOp(r request, client string, lane int) op {
	body, _ := json.Marshal(recommendBody{SQL: r.SQL, PrevSQL: r.Prev, N: topN})
	return op{path: recommendPath, client: client, lane: lane, body: body, reqs: []request{r}}
}

func batchOp(rs []request, client string, lane int) op {
	items := make([]recommendBody, len(rs))
	for i, r := range rs {
		items[i] = recommendBody{SQL: r.SQL, PrevSQL: r.Prev, N: topN}
	}
	body, _ := json.Marshal(map[string]any{"requests": items})
	return op{path: batchPath, client: client, lane: lane, body: body, reqs: rs}
}

// clamp cuts the requested op counts down to what the pool can supply,
// keeping their proportions.
func clamp(have int, want ...*int) {
	total := 0
	for _, w := range want {
		total += *w
	}
	if total <= have {
		return
	}
	for _, w := range want {
		*w = *w * have / total
	}
}

// coldStream sends distinct queries, each once: every request misses the
// inference cache and runs the classifier and the beam search. Which
// queries a phase sends is fixed; the seed decides their order. A query's
// cost is set by its decode length, which has a long tail, so a phase
// that drew its few hundred queries afresh for every seed would differ by
// a tenth from seed to seed on content alone (measured: 12% spread of
// throughput) — more than any regression bound worth having.
func coldStream(p *pool, seed int64, warm, open, closed int) *stream {
	clamp(coldPool, &warm, &open, &closed)
	g := synth.NewRNG(seed)
	phase := func(from, n int) []op {
		ops := make([]op, n)
		for i, sql := range shuffled(g, p.distinct[from:from+n]) {
			ops[i] = singleOp(request{SQL: sql}, "", 0)
		}
		return ops
	}
	return &stream{warm: phase(0, warm), open: phase(warm, open), closed: phase(warm+open, closed)}
}

// hotStream replays whole sessions round-robin and loops them: after the
// warm-up has sent every distinct request once, every timed op is a
// cache hit. clientFor names a session's client id so that the gateway
// homes session i on replica i%2 whatever ports the replicas got.
func hotStream(p *pool, seed int64, pairs, open, closed int, clientFor func(name string, lane int) string) *stream {
	order := shuffled(synth.NewRNG(seed), p.sessions)
	distinct := make(map[request]bool)
	var picked [][]op
	for i, sess := range order {
		n := 0
		for _, r := range sess {
			if !distinct[r] {
				n++
			}
		}
		if len(picked) > 0 && len(distinct)+n > pairs {
			break
		}
		lane := i % 2
		client := clientFor("session-"+strconv.Itoa(i), lane)
		ops := make([]op, len(sess))
		for j, r := range sess {
			distinct[r] = true
			ops[j] = singleOp(r, client, lane)
		}
		picked = append(picked, ops)
	}
	var round []op
	for step := 0; ; step++ {
		any := false
		for _, ops := range picked {
			if step < len(ops) {
				round = append(round, ops[step])
				any = true
			}
		}
		if !any {
			break
		}
	}
	loop := func(from, n int) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = round[(from+i)%len(round)]
		}
		return out
	}
	return &stream{warm: round, open: loop(0, open), closed: loop(open, closed)}
}

// Drift parameters: every batch carries driftNovel never-seen queries at
// a random position; its other items are distinct Zipf draws by recency
// over the driftWindow most recently introduced queries — popularity
// rotates and new queries keep entering, as in a production log. A fixed
// number of new queries per batch (not a coin per item) gives every batch
// the same share of model work.
const (
	driftBatch   = 8
	driftClients = 8
	driftWindow  = 64
	driftNovel   = 1
	driftZipfS   = 1.1
)

// driftStream builds batch ops over a drifting working set. The drift
// itself — which query enters when, and what is drawn around it — is one
// fixed process (its draws seeded by the pool's seed), for the reason
// coldStream gives; the seed decides the order of the items inside each
// batch and which tenant sends it. Op i belongs to lane i%2 and carries a
// client id homed on that replica, so each replica serves one batch at a
// time and its cache sees a deterministic request sequence.
func driftStream(p *pool, seed int64, warm, open, closed int, clientFor func(name string, lane int) string) *stream {
	fresh := p.distinct[coldPool : coldPool+driftPool]
	clamp((len(fresh)-driftWindow)/driftNovel, &warm, &open, &closed)
	clients := make([]string, driftClients)
	for i := range clients {
		clients[i] = clientFor("tenant-"+strconv.Itoa(i), i%2)
	}
	drift, order := synth.NewRNG(poolSeed), synth.NewRNG(seed)
	turn := 2 * order.Intn(driftClients/2) // even, so lanes keep their tenants
	// The window starts full, so the first op already draws from a whole
	// working set; recent[len-1] is the newest.
	recent := append([]string(nil), fresh[:driftWindow]...)
	fresh = fresh[driftWindow:]
	ops := make([]op, warm+open+closed)
	for i := range ops {
		rs := make([]request, driftBatch)
		drawn := make(map[int]bool, driftBatch)
		for j := range rs {
			// A client does not ask for one query twice in a batch.
			rank := drift.Zipf(len(recent), driftZipfS)
			for drawn[rank] {
				rank = drift.Zipf(len(recent), driftZipfS)
			}
			drawn[rank] = true
			rs[j] = request{SQL: recent[len(recent)-1-rank]}
		}
		for k := 0; k < driftNovel; k++ {
			rs[drift.Intn(driftBatch)] = request{SQL: fresh[0]}
			recent = append(recent[1:], fresh[0])
			fresh = fresh[1:]
		}
		ops[i] = batchOp(shuffled(order, rs), clients[(i+turn)%driftClients], i%2)
	}
	return &stream{warm: ops[:warm], open: ops[warm : warm+open], closed: ops[warm+open:]}
}
