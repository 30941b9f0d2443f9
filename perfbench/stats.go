package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
// +Inf entries (failed operations) sort last. Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(len(xs)-1, i))]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same inclusive rule as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	// Python's default "exclusive" method, clamping included.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runtimeSample is a snapshot of the Go runtime counters the go.* layer
// metrics are built from.
type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	heapLive        uint64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
		heapLive: s[3].Value.Uint64(),
	}
}

// runtimeLayer fills the go.* metrics for the interval between two samples.
func runtimeLayer(m metricSet, before, after runtimeSample) {
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	m.set("go.gc_cpu_frac", "frac", frac)
	m.set("go.gc_cycles", "count", float64(after.gcCycles-before.gcCycles))
	m.set("go.heap_live_mb", "MB", float64(after.heapLive)/(1<<20))
}
