// Package stats collects the runtime counters that the paper's evaluation
// reports: I/O accesses (buffer misses against the object R-tree), buffer
// hits, algorithm-specific work counters, and wall-clock timings.
//
// A single *Counters value is threaded through the storage stack and the
// matching algorithms; all increments are plain (non-atomic) because every
// matcher is single-threaded, exactly like the paper's implementation.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Counters accumulates the measurable work done by one matching run.
// The zero value is ready to use.
type Counters struct {
	// Storage-level counters (maintained by pagedfile / buffer).

	PageReads  int64 // physical page reads (buffer misses) — the paper's "I/O accesses"
	PageWrites int64 // physical page writes (dirty evictions + flushes)
	BufferHits int64 // page requests served from the LRU buffer

	// Algorithm-level counters.

	Top1Searches    int64 // ranked top-1 searches issued against an R-tree
	NodesVisited    int64 // R-tree nodes expanded by ranked search (shared across a batch)
	TAListAccesses  int64 // sorted-list entries consumed by the threshold algorithm
	ScoreEvals      int64 // f(o) evaluations
	DominanceChecks int64 // point/rect dominance tests, skyline cell corner tests included
	HeapOps         int64 // priority-queue pushes and pops
	SkylineUpdates  int64 // calls to the incremental skyline maintenance module
	SkylineMaxSize  int64 // largest skyline observed during the run
	Loops           int64 // outer loops of the matcher
	PairsEmitted    int64 // stable pairs reported
	TreeDeletes     int64 // object deletions from the disk R-tree
	ShardsPruned    int64 // whole shards skipped by MBR pruning (settled composite-snapshot walks)

	// Dynamic-backend counters.

	DeltaNodesVisited int64 // write-tier node reads (delta R-tree nodes and tombstone-masked leaves)
}

// IOAccesses returns the total physical I/O (reads + writes), the quantity
// plotted on the y-axis of Figures 2(a), 2(b) and 3(a).
func (c *Counters) IOAccesses() int64 { return c.PageReads + c.PageWrites }

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.PageReads += o.PageReads
	c.PageWrites += o.PageWrites
	c.BufferHits += o.BufferHits
	c.Top1Searches += o.Top1Searches
	c.NodesVisited += o.NodesVisited
	c.TAListAccesses += o.TAListAccesses
	c.ScoreEvals += o.ScoreEvals
	c.DominanceChecks += o.DominanceChecks
	c.HeapOps += o.HeapOps
	c.SkylineUpdates += o.SkylineUpdates
	if o.SkylineMaxSize > c.SkylineMaxSize {
		c.SkylineMaxSize = o.SkylineMaxSize
	}
	c.Loops += o.Loops
	c.PairsEmitted += o.PairsEmitted
	c.TreeDeletes += o.TreeDeletes
	c.ShardsPruned += o.ShardsPruned
	c.DeltaNodesVisited += o.DeltaNodesVisited
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// ObserveSkylineSize records a skyline cardinality, keeping the maximum.
func (c *Counters) ObserveSkylineSize(n int) {
	if int64(n) > c.SkylineMaxSize {
		c.SkylineMaxSize = int64(n)
	}
}

// String renders the counters as a compact single-line summary.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "io=%d (r=%d w=%d hits=%d)", c.IOAccesses(), c.PageReads, c.PageWrites, c.BufferHits)
	fmt.Fprintf(&b, " top1=%d nodes=%d ta=%d scores=%d dom=%d heap=%d", c.Top1Searches, c.NodesVisited, c.TAListAccesses, c.ScoreEvals, c.DominanceChecks, c.HeapOps)
	fmt.Fprintf(&b, " skyUpd=%d skyMax=%d loops=%d pairs=%d del=%d shardsPruned=%d deltaNodes=%d",
		c.SkylineUpdates, c.SkylineMaxSize, c.Loops, c.PairsEmitted, c.TreeDeletes, c.ShardsPruned, c.DeltaNodesVisited)
	return b.String()
}

// Timer measures a wall-clock interval. It is a tiny convenience over
// time.Now for symmetric start/stop call sites.
type Timer struct {
	start   time.Time
	elapsed time.Duration
	running bool
}

// Start begins (or resumes) the timer.
func (t *Timer) Start() {
	if !t.running {
		t.start = time.Now()
		t.running = true
	}
}

// Stop pauses the timer, accumulating the elapsed interval.
func (t *Timer) Stop() {
	if t.running {
		t.elapsed += time.Since(t.start)
		t.running = false
	}
}

// Elapsed returns the accumulated duration (including the in-flight interval
// when the timer is running).
func (t *Timer) Elapsed() time.Duration {
	if t.running {
		return t.elapsed + time.Since(t.start)
	}
	return t.elapsed
}

// Reset zeroes the timer.
func (t *Timer) Reset() { *t = Timer{} }
