package core

import (
	"prefmatch/internal/index"
	"prefmatch/internal/skyline"
)

// loopScratch bundles the SB matcher's reusable per-loop state. The
// generation counter makes clearing the per-function marks O(1): a mark is
// set by writing the current generation and cleared for everyone by bumping
// it.
type loopScratch struct {
	gen        int64
	fbestGen   []int64 // generation marks: fnIdx ∈ Fbest this loop
	matchedGen []int64 // generation marks: fnIdx matched this loop
	fbest      []int   // Fbest in skyline discovery order
	pairs      []matchedPair
	removed    []index.ObjID
	removedQ   removedSet
}

func newLoopScratch(numFns int) loopScratch {
	return loopScratch{
		fbestGen:   make([]int64, numFns),
		matchedGen: make([]int64, numFns),
	}
}

// matchedPair is a mutually-best (function, object) pair collected in one
// SB loop (§ IV-C).
type matchedPair struct {
	fIdx  int
	obj   *skyline.Object
	score float64
}

// removedSet answers "was this object removed this loop" for the SB
// matcher's fcache refresh pass without allocating at steady state: the
// usual one-or-two-pair loop uses a linear scan, while a large multi-pair
// batch (up to the skyline size) switches to a reused map so the refresh
// pass stays O(functions + removed) instead of O(functions × removed).
type removedSet struct {
	ids    []index.ObjID
	m      map[index.ObjID]bool
	useMap bool
}

// reset points the set at this loop's removed objects. ids is borrowed, not
// copied; it must stay unchanged until the next reset.
func (r *removedSet) reset(ids []index.ObjID) {
	r.ids = ids
	r.useMap = len(ids) > 8
	if !r.useMap {
		return
	}
	if r.m == nil {
		r.m = make(map[index.ObjID]bool, len(ids))
	} else {
		clear(r.m)
	}
	for _, id := range ids {
		r.m[id] = true
	}
}

// has reports whether id was removed this loop.
func (r *removedSet) has(id index.ObjID) bool {
	if r.useMap {
		return r.m[id]
	}
	for _, v := range r.ids {
		if v == id {
			return true
		}
	}
	return false
}

// pairQueue is the SB matcher's FIFO of emitted-but-not-yet-returned
// pairs. Popping advances a head index instead of
// re-slicing the buffer — the old `queue = queue[1:]` pattern kept the
// original backing array reachable for the matcher's whole life, retaining
// every pair ever emitted. When the queue drains, the buffer is rewound and
// reused, so a long matching run settles on one small allocation.
type pairQueue struct {
	buf  []Pair
	head int
}

// push appends p to the tail of the queue.
func (q *pairQueue) push(p Pair) { q.buf = append(q.buf, p) }

// pop removes and returns the oldest pair; ok is false when the queue is
// empty. Draining the last element rewinds the buffer for reuse.
func (q *pairQueue) pop() (Pair, bool) {
	if q.head == len(q.buf) {
		return Pair{}, false
	}
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p, true
}

// len returns the number of queued pairs.
func (q *pairQueue) len() int { return len(q.buf) - q.head }
