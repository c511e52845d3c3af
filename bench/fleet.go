package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/modeldir"
	"repro/internal/reccache"
	"repro/internal/servepool"
	"repro/internal/server"
)

// topology says how a serving workload composes the fleet. Everything
// not named here takes the value cmd/qrec-serve and cmd/qrec-gw give it
// when started with no flags.
type topology struct {
	replicas  int  // qrec-serve instances
	gateway   bool // clients go through qrec-gw
	batchSize int  // -batch-size
	cacheSize int  // -cache-size; 0 keeps the default
	maxQueue  int  // -max-queue; 0 keeps the default (= workers)
}

// serveConfig is cmd/qrec-serve's flag-default server.Config: batching
// off, cache 4096, soft timeout 5s, breaker 0.5, degrade on, admission
// cap 2*(workers+queue).
func serveConfig(rec *core.Recommender, t topology, id string) server.Config {
	w := runtime.GOMAXPROCS(0)
	q := w
	if t.maxQueue > 0 {
		q = t.maxQueue
	}
	cfg := server.Config{
		CacheSize:    t.cacheEntries(),
		Timeout:      server.DefaultTimeout,
		MaxBodyBytes: server.DefaultMaxBodyBytes,
		MaxBatch:     server.DefaultMaxBatch,
		MaxQueue:     t.maxQueue,
		MaxInFlight:  2 * (w + q),
		SoftTimeout:  5 * time.Second,
		BatchSize:    t.batchSize,
		BreakerRatio: 0.5,
		ReplicaID:    id,
		Fallback:     servepool.FallbackFromRecommender(rec, 25),
		FallbackFactory: func(r *core.Recommender) *servepool.Fallback {
			return servepool.FallbackFromRecommender(r, 25)
		},
	}
	return cfg
}

// cacheEntries is the replica's -cache-size.
func (t topology) cacheEntries() int {
	if t.cacheSize != 0 {
		return t.cacheSize
	}
	return server.DefaultCacheSize
}

type replica struct {
	url  string
	rec  *core.Recommender
	done chan error
}

// fleet is the system under test: real listeners on loopback, composed in
// this process so its CPU, allocations and memory can be read.
type fleet struct {
	replicas []*replica
	gw       *gateway.Gateway
	gwServer *http.Server
	gwDone   chan error
	entry    string // base URL clients send to
	cancel   context.CancelFunc
	loadTime time.Duration // summed modeldir.Load time
}

func startFleet(modelDir string, t topology) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	for i := 0; i < t.replicas; i++ {
		t0 := time.Now()
		rec, err := modeldir.Load(modelDir, 0)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.loadTime += time.Since(t0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		id := "r" + strconv.Itoa(i)
		srv := server.NewWithConfig(rec, serveConfig(rec, t, id))
		r := &replica{url: "http://" + ln.Addr().String(), rec: rec, done: make(chan error, 1)}
		go func() { r.done <- server.Serve(ctx, ln, srv, server.DefaultDrainTimeout) }()
		f.replicas = append(f.replicas, r)
	}
	f.entry = f.replicas[0].url
	if !t.gateway {
		return f, nil
	}
	urls := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		urls[i] = r.url
	}
	gw, err := gateway.New(gateway.Config{Replicas: urls, Seed: 1, Clock: time.Now})
	if err != nil {
		f.stop()
		return nil, err
	}
	// qrec-gw routes from the first request on; probing once before the
	// listener opens keeps "replica still unknown" out of the timed ops.
	gw.Prober().ProbeAll(ctx)
	for _, u := range urls {
		if !gw.Prober().State(u).Routable() {
			f.stop()
			return nil, fmt.Errorf("gateway warm-up: replica %s is %s", u, gw.Prober().State(u))
		}
	}
	go gw.Run(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	// server.RunHandler takes an address, not a listener; this is its
	// http.Server, on a port the kernel picked.
	f.gw = gw
	f.gwServer = &http.Server{Handler: gw, ReadHeaderTimeout: 10 * time.Second}
	f.gwDone = make(chan error, 1)
	go func() { f.gwDone <- f.gwServer.Serve(ln) }()
	f.entry = "http://" + ln.Addr().String()
	return f, nil
}

// stop shuts the gateway and every replica down and waits for them.
func (f *fleet) stop() error {
	var first error
	if f.gwServer != nil {
		ctx, cancel := context.WithTimeout(context.Background(), server.DefaultDrainTimeout)
		first = f.gwServer.Shutdown(ctx)
		cancel()
		if err := <-f.gwDone; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	f.cancel()
	for _, r := range f.replicas {
		if err := <-r.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientFor derives a client id from name that the gateway's ring homes
// on replica lane. The ring hashes replica URLs, and those carry
// kernel-picked ports; choosing ids this way keeps the split of clients
// over replicas — and so each replica's cache contents — the same on
// every run.
func (f *fleet) clientFor(name string, lane int) string {
	if f.gw == nil {
		return name
	}
	want := f.replicas[lane%len(f.replicas)].url
	for k := 0; ; k++ {
		id := name + "-" + strconv.Itoa(k)
		if f.gw.Ring().Candidates(id)[0] == want {
			return id
		}
	}
}

// replicaStats is the part of a replica's /v1/healthz the benchmark reads.
type replicaStats struct {
	Cache    reccache.Stats         `json:"cache"`
	Pool     servepool.PoolStats    `json:"pool"`
	Batcher  servepool.BatcherStats `json:"batcher"`
	Overload struct {
		Engine servepool.OverloadStats `json:"engine"`
	} `json:"overload"`
}

// fleetStats sums the counters of every replica; gauges take the maximum.
type fleetStats struct {
	cacheHits, cacheMisses, evictions uint64
	poolExecuted                      uint64
	queueHighWater                    int64
	batches, batchItems, windowHits   uint64
	batchWaitNs                       uint64
	degraded, shed                    uint64
	softTimeouts, modelFailures       uint64
	gw                                gateway.Stats
}

func (f *fleet) stats(c *http.Client) (fleetStats, error) {
	var s fleetStats
	for _, r := range f.replicas {
		resp, err := c.Get(r.url + "/v1/healthz")
		if err != nil {
			return s, err
		}
		var rs replicaStats
		err = json.NewDecoder(resp.Body).Decode(&rs)
		_ = resp.Body.Close()
		if err != nil {
			return s, fmt.Errorf("decode %s/v1/healthz: %w", r.url, err)
		}
		s.cacheHits += rs.Cache.Hits
		s.cacheMisses += rs.Cache.Misses
		s.evictions += rs.Cache.Evictions
		s.poolExecuted += rs.Pool.Executed
		s.queueHighWater = max(s.queueHighWater, rs.Pool.QueueHighWater)
		for _, h := range []servepool.BatcherHalfStats{rs.Batcher.Templates, rs.Batcher.Fragments} {
			s.batches += h.Batches
			s.batchItems += h.Items
			s.windowHits += h.WindowHits
			s.batchWaitNs += h.QueueWaitNsTotal
		}
		ov := rs.Overload.Engine
		s.degraded += ov.Degraded
		s.shed += ov.Admission.ShedLoad + ov.Admission.ShedQueue
		s.softTimeouts += ov.SoftTimeouts
		s.modelFailures += ov.ModelFailures
	}
	if f.gw != nil {
		s.gw = f.gw.Stats()
	}
	return s, nil
}

func (s fleetStats) since(b fleetStats) fleetStats {
	d := s
	d.cacheHits -= b.cacheHits
	d.cacheMisses -= b.cacheMisses
	d.evictions -= b.evictions
	d.poolExecuted -= b.poolExecuted
	d.batches -= b.batches
	d.batchItems -= b.batchItems
	d.windowHits -= b.windowHits
	d.batchWaitNs -= b.batchWaitNs
	d.degraded -= b.degraded
	d.shed -= b.shed
	d.softTimeouts -= b.softTimeouts
	d.modelFailures -= b.modelFailures
	d.gw.Proxied -= b.gw.Proxied
	d.gw.Retried -= b.gw.Retried
	d.gw.Collapsed -= b.gw.Collapsed
	d.gw.Exhausted -= b.gw.Exhausted
	return d
}
