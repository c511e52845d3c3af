package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/modeldir"
)

// golden maps a request key to the FNV-64a of the answer the checked-in
// model gave it on the sequential (unbatched) inference path.
type golden map[uint64]uint64

var servingWorkloads = []string{"cold_model", "hot_session", "drift_batch"}

func goldenPath(dataDir, workload string) string {
	return filepath.Join(dataDir, "golden-"+workload+".hashes")
}

func loadGolden(dataDir, workload string) (golden, error) {
	f, err := os.Open(goldenPath(dataDir, workload))
	if err != nil {
		return nil, fmt.Errorf("golden answers missing (write them with -regen): %w", err)
	}
	defer f.Close()
	g := make(golden)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var k, v uint64
		if _, err := fmt.Sscanf(sc.Text(), "%x %x", &k, &v); err != nil {
			return nil, fmt.Errorf("%s: bad line %q", f.Name(), sc.Text())
		}
		g[k] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("%s: no golden answers", f.Name())
	}
	return g, nil
}

// regenGolden records the golden answers of every request the serving
// workloads can send: one replica, batching off, so the answers come from
// the sequential Recommender path and drift_batch's batched replicas are
// held to it. It also keeps the first 100 full bodies per workload as
// JSONL, for reading a mismatch by eye.
func regenGolden(dataDir string, p *pool) error {
	for _, name := range servingWorkloads {
		f, err := startFleet(filepath.Join(dataDir, "model"), topology{replicas: 1})
		if err != nil {
			return err
		}
		err = recordGolden(dataDir, name, p.poolRequests(name), f.entry)
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("regen %s: %w", name, err)
		}
	}
	return nil
}

func recordGolden(dataDir, name string, reqs []request, entry string) error {
	// drift_batch's answers are batch items, the others whole bodies; the
	// two renderings of one answer need not be the same bytes. The batches
	// hold one item each: with batching off, a wider one overruns the
	// default admission queue and is answered degraded.
	ops := make([]op, len(reqs))
	for i, r := range reqs {
		if name == "drift_batch" {
			ops[i] = batchOp([]request{r}, "", 0)
		} else {
			ops[i] = singleOp(r, "", 0)
		}
	}
	s := newSender(entry, nil)
	var hashes, sample bytes.Buffer
	samples := 0
	for i := range ops {
		o := &ops[i]
		raw, status, err := s.post(0, entry, o)
		if err != nil || status != 200 {
			return fmt.Errorf("request %d: status %d: %v", i, status, err)
		}
		parts, err := answers(o, raw)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		for j, part := range parts {
			part = bytes.TrimSpace(part)
			if v := judge(nil, o.reqs[j], part); v != changed {
				return fmt.Errorf("request %d: not a full-quality answer: %s", i, part)
			}
			fmt.Fprintf(&hashes, "%016x %016x\n", o.reqs[j].key(), hashBytes(part))
			if samples < 100 {
				samples++
				line, _ := json.Marshal(map[string]any{"prev_sql": o.reqs[j].Prev, "sql": o.reqs[j].SQL, "answer": json.RawMessage(part)})
				sample.Write(line)
				sample.WriteByte('\n')
			}
		}
	}
	if err := os.WriteFile(goldenPath(dataDir, name), hashes.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dataDir, "golden-"+name+".sample.jsonl"), sample.Bytes(), 0o644)
}

// regenerate rewrites bench/testdata: the model artifact (cmd/qrec-train's
// defaults on the whole SDSS-sim training log, seed 1), the golden answers
// that model gives, and the pinned quality of the capped training run.
// Serving workloads load the artifact instead of training, so a later
// change to training arithmetic cannot shift decode lengths and pass for
// a serving result.
func regenerate(cfg runConfig) error {
	ts, err := prepareTraining()
	if err != nil {
		return err
	}
	var seqClock, clsClock stepClock
	rec, err := core.Train(ts.ds, trainConfig(1, 0, &seqClock, &clsClock))
	if err != nil {
		return err
	}
	if err := modeldir.Save(filepath.Join(cfg.dataDir, "model"), rec); err != nil {
		return err
	}
	p, err := buildPool()
	if err != nil {
		return err
	}
	if err := regenGolden(cfg.dataDir, p); err != nil {
		return err
	}
	return regenPinned(cfg, ts)
}
