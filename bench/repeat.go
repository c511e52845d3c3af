package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the tools below read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), which is what the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	at := func(p float64) float64 { // p in (0,1): position p*(n+1), 1-based
		pos := p*float64(len(xs)+1) - 1
		pos = min(max(pos, 0), float64(len(xs)-1))
		return quantile(xs, pos/float64(max(len(xs)-1, 1)))
	}
	return at(0.25), at(0.5), at(0.75)
}

// summary is one metric of one workload over repeated runs.
type summary struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`  // (q3-q1)/median
	MaxDev float64   `json:"max_dev"` // largest |value-median|/median
}

func summarize(xs []float64) summary {
	s := summary{Values: xs}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	s.Spread = ratio(s.Q3-s.Q1, s.Median)
	for _, x := range xs {
		s.MaxDev = max(s.MaxDev, ratio(max(x-s.Median, s.Median-x), s.Median))
	}
	return s
}

// runChild runs one workload once in a fresh process — the way the
// acceptance check does, so that memory high-water marks and warmed pools
// do not carry over — and returns its result line.
func runChild(name string, cfg runConfig) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0",
		"-data", cfg.dataDir, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, cfg.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, cfg.seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported correct=false", name, cfg.seed)
	}
	return &res, nil
}

// repeatRuns runs every workload (or only the one named) n times, seeds cfg.seed, cfg.seed+1, ...,
// and prints each end-to-end metric's median, quartiles and spread beside
// the bound BENCHMARK.json gives it. It fails when a spread exceeds its
// bound: such a metric cannot tell a regression from noise.
func repeatRuns(cfg runConfig, only string, n int, saveTo string) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	all := map[string]map[string]summary{}
	over := 0
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, wl := range m.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runChild(wl.Name, c)
			if err != nil {
				return err
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		all[wl.Name] = map[string]summary{}
		fmt.Fprintf(w, "== %s: %d runs, seeds %d-%d\n", wl.Name, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Fprintf(w, "   %-18s %12s %12s %12s %8s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "max dev", "bound")
		for _, d := range m.EndToEnd {
			s := summarize(values[d.Name])
			all[wl.Name][d.Name] = s
			flag := ""
			// setup_s is held to its bound between sets of runs, not within one.
			if s.Spread > d.Bound && d.Name != "setup_s" {
				flag = "  SPREAD OVER BOUND"
				over++
			}
			fmt.Fprintf(w, "   %-18s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n", d.Name, s.Q1, s.Median, s.Q3, s.Spread, s.MaxDev, d.Bound, flag)
		}
		w.Flush()
	}
	if saveTo != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(saveTo, data, 0o644); err != nil {
			return err
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", over)
	}
	return nil
}

// compareFiles prints, for every workload and end-to-end metric, the
// parent's and the change's median and what the difference amounts to:
// better or worse when it exceeds the metric's bound in that direction,
// within-bound when it does not, unresolved when either side's own spread
// is wider than the bound.
func compareFiles(parentPath, changePath string) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sides [2]map[string]map[string]summary
	for i, path := range []string{parentPath, changePath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sides[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Printf("%-14s %-18s %12s %12s %9s  %s\n", "workload", "metric", "parent", "change", "delta", "verdict")
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			p, c := sides[0][wl.Name][d.Name], sides[1][wl.Name][d.Name]
			delta := ratio(c.Median-p.Median, p.Median)
			gain := delta
			if d.Better == "lower" {
				gain = -delta
			}
			verdict := "within-bound"
			switch {
			case p.Spread > d.Bound || c.Spread > d.Bound:
				verdict = "unresolved"
			case gain > d.Bound:
				verdict = "better"
			case gain < -d.Bound:
				verdict = "worse"
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %+8.2f%%  %s\n", wl.Name, d.Name, p.Median, c.Median, 100*delta, verdict)
		}
	}
	return nil
}
