package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of v by
// the "exclusive" method (Python's statistics.quantiles(v, n=4) default), the
// same definition the bounds in BENCHMARK.json are judged by.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// latencies collects per-operation durations in nanoseconds.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

// pct returns the q-quantile (0..1) in microseconds by nearest rank, or 0 for
// an empty sample. It sorts l in place.
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
	i := int(q*float64(len(l))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l) {
		i = len(l) - 1
	}
	return float64(l[i]) / 1e3
}

func (l latencies) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range l {
		s += float64(v)
	}
	return s / float64(len(l)) / 1e3
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse forces a collection and returns the bytes in in-use heap spans.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// rtSample is a snapshot of the runtime counters the per-layer metrics use.
type rtSample struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	out := rtSample{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[2].Value.Float64Histogram()
	}
	return out
}

// pauseP99us returns the 99th percentile of every stop-the-world GC pause
// since the process started, in microseconds, at the upper edge of its
// histogram bucket (the lower edge for the open-ended last bucket).
func (s rtSample) pauseP99us() float64 {
	h := s.pauses
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := (total*99 + 99) / 100
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			edge := h.Buckets[i+1]
			if edge > 1e9 {
				edge = h.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
