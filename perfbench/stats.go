package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tails are the percentiles a replay keeps of one latency.
type tails struct{ p50, p90, p99 float64 }

func tailsOf(xs []float64) tails {
	return tails{quantile(xs, 0.50), quantile(xs, 0.90), quantile(xs, 0.99)}
}

func floats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

func sum(ns []int64) int64 {
	var t int64
	for _, v := range ns {
		t += v
	}
	return t
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	allocs    uint64  // heap objects allocated, cumulative
	gcCPU     float64 // GC CPU seconds, cumulative
	assistCPU float64 // the part of gcCPU spent in mutator assists
	totCPU    float64 // GOMAXPROCS x wall seconds, cumulative
	idleCPU   float64 // the part of totCPU no goroutine used
	procCPU   float64 // process user+system CPU seconds, from the OS
}

func (s runtimeSample) add(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocs: s.allocs + o.allocs, gcCPU: s.gcCPU + o.gcCPU, assistCPU: s.assistCPU + o.assistCPU,
		totCPU: s.totCPU + o.totCPU, idleCPU: s.idleCPU + o.idleCPU, procCPU: s.procCPU + o.procCPU,
	}
}

var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSample{
		allocs:    s[0].Value.Uint64(),
		gcCPU:     s[1].Value.Float64(),
		assistCPU: s[2].Value.Float64(),
		totCPU:    s[3].Value.Float64(),
		idleCPU:   s[4].Value.Float64(),
		procCPU:   tv(ru.Utime) + tv(ru.Stime),
	}
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
