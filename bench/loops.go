package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// setupMeter times reps set-ups of the system under test from inputs
// already in memory. setup_s is the median build time and bytes_per_object
// the median heap growth per object: HeapInuse after the build and a
// collection, minus HeapInuse before it, with the inputs alive both times.
// Half the set-ups run before the measured phase (the last one is served)
// and the rest after it, so the median samples the machine at two moments
// rather than one.
type setupMeter[T any] struct {
	reps     int
	objects  int
	build    func() (T, error)
	teardown func(T)
	times    []float64
	bytes    []float64
}

// first runs the set-ups taken before the measured phase and returns the
// last of them; the others are torn down.
func (m *setupMeter[T]) first() (T, error) {
	return m.runN((m.reps + 1) / 2)
}

// rest runs the remaining set-ups, after the measured phase, tearing each
// down.
func (m *setupMeter[T]) rest() error {
	n := m.reps - (m.reps+1)/2
	if n == 0 {
		return nil
	}
	v, err := m.runN(n)
	if err == nil {
		m.teardown(v)
	}
	return err
}

func (m *setupMeter[T]) runN(n int) (T, error) {
	var cur T
	for r := 0; r < n; r++ {
		if r > 0 {
			m.teardown(cur)
		}
		before := heapInuse()
		t0 := time.Now()
		v, err := m.build()
		dt := time.Since(t0)
		if err != nil {
			return v, err
		}
		cur = v
		after := heapInuse()
		m.times = append(m.times, dt.Seconds())
		m.bytes = append(m.bytes, (float64(after)-float64(before))/float64(m.objects))
	}
	return cur, nil
}

// result returns setup_s and bytes_per_object.
func (m *setupMeter[T]) result() (float64, float64) {
	return median(m.times), median(m.bytes)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opKind is one class of operation a loop issues.
type opKind struct {
	span  string // name of the span around the call into the server
	write bool
}

// failedLatency stands in for the latency of a failed request: a failure
// misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// loopResult is what a measured phase observed. A traced run splits the
// phase in two halves: requests due in the first run untraced, requests due
// in the second are traced, so the two halves compare tracing's cost.
type loopResult struct {
	lat       [][2]latencies // per kind: [0] untraced half, [1] traced half
	late      latencies      // how late the client released each untraced request
	attempted int64
	failed    int64
	elapsed   time.Duration
	cpu       time.Duration // process CPU over the phase, generator spin excluded
}

func newLoopResult(kinds int) *loopResult {
	return &loopResult{lat: make([][2]latencies, kinds)}
}

// pick merges the latencies of the kinds accepted by keep, from one half.
func (r *loopResult) pick(half int, keep func(kind int) bool) latencies {
	var out latencies
	for k := range r.lat {
		if keep(k) {
			out = append(out, r.lat[k][half]...)
		}
	}
	return out
}

func (r *loopResult) completed() int64 { return r.attempted - r.failed }

// openLoop runs one paced client for dur: op(i) is released when request i
// falls due at the given rate and is timed from that due time. Requests due
// at or after traceAt are traced into tr.
func openLoop(rate float64, dur, traceAt time.Duration, tr *tracer, kinds []opKind, op func(i int64) (kind int, err error)) *loopResult {
	res := newLoopResult(len(kinds))
	expect := int(rate*dur.Seconds()) + 16
	res.lat[0][0] = make(latencies, 0, expect)
	res.late = make(latencies, 0, expect)
	cpu0 := cpuTime()
	start := time.Now()
	p := newPacer(start, rate)
	end := start.Add(dur)
	for !p.nextDue().After(end) {
		i, due, now := p.wait()
		half := 0
		if due.Sub(start) >= traceAt {
			half = 1
		}
		kind, err := op(i)
		done := time.Now()
		res.attempted++
		lat := done.Sub(due)
		if err != nil {
			res.failed++
			lat = failedLatency
		}
		res.lat[kind][half].add(lat)
		if half == 0 {
			res.late.add(now.Sub(due))
		} else if tr != nil {
			parent := tr.add("client.request", 0, i, due, done)
			tr.add(kinds[kind].span, parent, i, now, done)
		}
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0 - p.spin
	return res
}

// closedLoop runs clients goroutines for dur, each issuing op as soon as its
// previous call returns. A closed-loop request is due when the client's
// previous one completed, so its lateness is the generator's own time
// between calls. Requests issued at or after traceAt are traced into tr.
func closedLoop(clients int, dur, traceAt time.Duration, tr *tracer, span string, op func(client int, i int64) error) *loopResult {
	parts := make([]*loopResult, clients)
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		part := newLoopResult(1)
		parts[c] = part
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := start
			for i := int64(0); ; i++ {
				issue := time.Now()
				if !issue.Before(end) {
					return
				}
				half := 0
				if issue.Sub(start) >= traceAt {
					half = 1
				}
				err := op(c, i)
				done := time.Now()
				part.attempted++
				lat := done.Sub(issue)
				if err != nil {
					part.failed++
					lat = failedLatency
				}
				part.lat[0][half].add(lat)
				if half == 0 {
					part.late.add(issue.Sub(prev))
				} else if tr != nil {
					req := int64(c)<<40 | i
					parent := tr.add("client.request", 0, req, prev, done)
					tr.add(span, parent, req, issue, done)
				}
				prev = done
			}
		}(c)
	}
	wg.Wait()
	res := newLoopResult(1)
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		for h := 0; h < 2; h++ {
			res.lat[0][h] = append(res.lat[0][h], p.lat[0][h]...)
		}
		res.late = append(res.late, p.late...)
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	return res
}
