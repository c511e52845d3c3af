package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	//lint:ignore floateq exact zero is the sentinel: a count or a duration of nothing
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// usage is a snapshot of the process-wide resource counters a phase is
// charged with: the generator's share is in there too, and is the same
// on both sides of any comparison.
type usage struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	gemm     tensor.KernelStats
	pool     tensor.PoolStats
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		gemm:     tensor.Kernels(),
		pool:     tensor.Shared.Stats(),
	}
}

func (u usage) since(b usage) usage {
	return usage{
		cpu:      u.cpu - b.cpu,
		mallocs:  u.mallocs - b.mallocs,
		bytes:    u.bytes - b.bytes,
		gcCycles: u.gcCycles - b.gcCycles,
		gcPause:  u.gcPause - b.gcPause,
		gemm: tensor.KernelStats{
			SerialGEMM:   u.gemm.SerialGEMM - b.gemm.SerialGEMM,
			ParallelGEMM: u.gemm.ParallelGEMM - b.gemm.ParallelGEMM,
		},
		pool: tensor.PoolStats{
			Gets:   u.pool.Gets - b.pool.Gets,
			Puts:   u.pool.Puts - b.pool.Puts,
			Misses: u.pool.Misses - b.pool.Misses,
		},
	}
}

// liveHeapMB is the heap still in use after a collection: what the system
// under test holds on to (model, caches, pools), where peak RSS also counts
// garbage that happened not to be collected yet and so repeats poorly.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle empties the sync.Pools the first one aged
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's high-water resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
