package main

import (
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark checks itself at a fraction of its length: every workload
// runs end to end and traced, and must report exactly the metrics
// BENCHMARK.json declares, with the declared units.

const selftestSeconds = 0.8

func selftestConfig(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 1, seconds: selftestSeconds, trace: traced, dataDir: "testdata", outDir: t.TempDir()}
}

func TestMetricsMatchManifest(t *testing.T) {
	if raceDetector {
		// Ten times slower, the coordinators of one drift_batch call no
		// longer reach the micro-batcher within one batch window; the
		// split batches overrun the default admission queue and the run
		// sees degraded answers. That is a finding about the defaults on a
		// slow machine, not a data race.
		t.Skip("full workload runs are timing-sensitive; the race detector distorts them")
	}
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloadNames))
	}
	for i, wl := range m.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, wl.Name, workloadNames[i])
		}
	}
	for _, pass := range []struct {
		traced   bool
		declared []declared
	}{{false, m.EndToEnd}, {true, m.PerLayer}} {
		for _, name := range workloadNames {
			cfg := selftestConfig(t, pass.traced)
			r, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, pass.traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%t: not correct: %v", name, pass.traced, r.notes)
			}
			if !strings.Contains(strings.Join(r.notes, "\n"), "gate: ") {
				t.Errorf("%s traced=%t: no validity gate was evaluated", name, pass.traced)
			}
			got := map[string]string{}
			for _, mt := range r.metrics {
				if _, dup := got[mt.name]; dup {
					t.Errorf("%s: metric %s reported twice", name, mt.name)
				}
				got[mt.name] = mt.unit
			}
			if len(got) != len(pass.declared) {
				t.Errorf("%s traced=%t: %d metrics reported, %d declared", name, pass.traced, len(got), len(pass.declared))
			}
			for _, d := range pass.declared {
				if unit, ok := got[d.Name]; !ok {
					t.Errorf("%s: declared metric %s not reported", name, d.Name)
				} else if unit != d.Unit {
					t.Errorf("%s: metric %s reported in %q, declared in %q", name, d.Name, unit, d.Unit)
				}
			}
			if pass.traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: traced pass left no span file: %v", name, err)
				}
			}
		}
	}
}

// hash fingerprints a stream: order, clients and bodies.
func (s *stream) hash() uint64 {
	h := fnv.New64a()
	for _, ops := range [][]op{s.warm, s.open, s.closed} {
		for _, o := range ops {
			_, _ = h.Write([]byte(o.client))
			_, _ = h.Write(o.body)
		}
		_, _ = h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// Equal seeds must replay equal request streams, and another seed another.
func TestStreamsFollowSeed(t *testing.T) {
	p, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range servingSpecs {
		hash := func(seed int64) uint64 { return s.build(p, seed, s, laneName, 40, 40).hash() }
		if hash(1) != hash(1) {
			t.Errorf("%s: seed 1 gave two different streams", s.name)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", s.name)
		}
	}
}

// Every request a workload can send must have a golden answer, or a run
// would report a correct answer as changed.
func TestGoldensCoverPool(t *testing.T) {
	p, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range servingWorkloads {
		g, err := loadGolden("testdata", name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.poolRequests(name) {
			if _, ok := g[r.key()]; !ok {
				t.Fatalf("%s: no golden answer for %q", name, r.SQL)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// The repository's own gates must stay clean with bench/ in the tree:
// qrec-lint walks into this directory even though it is its own module.
func TestTreeStaysClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	run := func(dir string, args ...string) string {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	run(".", "vet", ".")
	run("..", "run", "./cmd/qrec-lint", "./bench/...")
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil || len(out) > 0 {
		t.Errorf("gofmt -l: %v\n%s", err, out)
	}
}
