package main

import (
	"runtime"
	"time"
)

// sleepMargin is how close to a due time the pacer stops sleeping and starts
// spinning. The Go timer wakes a sleeper about a millisecond late on a small
// VM (time.Sleep(100µs) measured 1.07 ms median), so sleeping all the way to
// the due time would make the generator, not the server, set the latency
// percentiles.
const sleepMargin = 2 * time.Millisecond

// pacer is the open-loop schedule of one client: event i is due at
// start + i·interval whatever happened to earlier events, so a stall delays
// the events behind it and their latency, timed from the due time, shows it
// (no coordinated omission). A pacer belongs to one goroutine; run one paced
// client per open-loop workload, because two spinning clients on two cores
// starve the server and the runtime.
type pacer struct {
	start    time.Time
	interval time.Duration
	next     int64

	// spin is the wall time spent spinning for due times: CPU the generator
	// burns, which cpu_us_per_op subtracts from the process CPU.
	spin time.Duration
}

func newPacer(start time.Time, rate float64) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// nextDue returns the due time of the event wait will release next.
func (p *pacer) nextDue() time.Time {
	return p.start.Add(time.Duration(p.next) * p.interval)
}

// wait blocks until the next event is due and returns its index, its due
// time and the time it was actually released (never before the due time).
// An overdue event is released at once: the schedule never skips.
func (p *pacer) wait() (i int64, due, now time.Time) {
	i, due = p.next, p.nextDue()
	p.next++
	now = time.Now()
	if d := due.Sub(now); d > sleepMargin {
		time.Sleep(d - sleepMargin)
		now = time.Now()
	}
	if now.Before(due) {
		spinFrom := now
		for now.Before(due) {
			runtime.Gosched()
			now = time.Now()
		}
		p.spin += now.Sub(spinFrom)
	}
	return i, due, now
}
