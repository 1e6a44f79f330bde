package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is one reading of the process-wide cost counters every
// end-to-end metric is a delta of.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user+sys of the whole process: scanner and simulated servers
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss of this process (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapLiveMB is HeapAlloc after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rep is the cost of one timed repetition.
type rep struct {
	ops     int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// timed runs fn between two usage readings; fn returns how many ops
// ended with the verdict the ground truth expects.
func timed(fn func() int) rep {
	before := readUsage()
	ops := fn()
	after := readUsage()
	return rep{
		ops:     ops,
		wall:    after.wall.Sub(before.wall),
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
	}
}

// perOp turns repetitions into the per-repetition samples of the four
// rate metrics.
func perOp(reps []rep) (opsPerS, cpuUs, allocs, allocKB []float64) {
	for _, r := range reps {
		n := float64(r.ops)
		if n == 0 {
			n = 1
		}
		opsPerS = append(opsPerS, float64(r.ops)/r.wall.Seconds())
		cpuUs = append(cpuUs, float64(r.cpu.Microseconds())/n)
		allocs = append(allocs, float64(r.mallocs)/n)
		allocKB = append(allocKB, float64(r.bytes)/1024/n)
	}
	return
}

// summary is a metric's value with the spread -compare needs: the
// median over repetitions, the quartiles and the sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Samples are kept so that runs of one workload in several
	// processes can be merged before they are summarized again.
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func single(unit string, v float64) summary { return summarize(unit, []float64{v}) }

// quartiles matches Python's statistics.quantiles(values, n=4), the
// estimator the acceptance check uses, so spreads printed here are the
// spreads it sees. Fewer than two samples have no spread.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// exclusive method: position i*(n+1)/4, 1-based, clamped
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}

// percentile is the nearest-rank percentile of samples (p in 0..100).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
