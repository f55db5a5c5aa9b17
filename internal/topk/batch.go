// Batched shared-traversal ranked search: one best-first descent of the
// R-tree answers top-k for a whole batch of preference functions. This is the
// paper's shared-work thesis applied to the serving path — a wave of Q
// functions used to descend the tree Q times, re-reading the same upper-level
// nodes Q times; a BatchSearcher reads each needed node once and scores the
// functions that can still use it with the blocked kernels of internal/vec.
//
// The shared frontier holds R-tree nodes only, keyed on the MAXIMUM upper
// bound over the functions the node was useful to when pushed; objects are
// offered directly to the per-function result heaps at leaf expansion. Keys
// are non-increasing along any root-to-leaf path (an MBR's bound dominates
// its children's for every monotone preference, and the max of a shrinking
// set only shrinks), so the frontier pops in descending key order. That
// ordering makes per-function termination a local test: when the popped key
// B drops below function f's current k-th best score, no remaining entry can
// improve f, and f deactivates without closing the traversal; the search
// ends when every function is done, which is usually long before the
// frontier drains.
//
// Sharing node reads must not multiply scoring work: a node in the union of
// Q descents is usually relevant to only a few of the Q functions, and
// scoring all of them against it would trade Q-fold I/O savings for Q-fold
// CPU. Each frontier entry therefore carries the bitmask of functions the
// node was useful to when pushed, and beside it, in a per-searcher slab, each
// of those functions' own push-time bound — both byproducts of the bounds
// matrix the blocked kernel computes anyway. At pop, function f is scored
// against the node only if it is still active and its own bound still passes
// the push-time test against its current k-th best. The entry's key is the
// maximum over the mask, so without that re-test every function in the mask
// would be scored for as long as any one of them kept the node alive. A node
// no function survives for is dropped unread.
//
// The re-test is exact. A subtree's objects score at most f's bound over its
// MBR, and f's k-th best only rises during the traversal, so a node that
// fails the test can hold nothing f will keep. The test is non-strict, like
// the one at push — an object scoring exactly the k-th best can still win on
// the sum/ID tie-break — so every object of f's final top-k is offered to f.
// Functions left out of the mask at push time are excluded for the same
// reason.
//
// A mask has one bit per function, so one traversal serves at most 64
// functions (the serving layer's chunk size). Run walks a wider batch as
// successive traversals of 64 functions at a time, each with exact masks;
// the tree's upper levels are then read once per 64 functions rather than
// once per function.
//
// Results are bit-identical to Q independent Searchers drained k deep: the
// kernels accumulate per (function, entry) in ascending coordinate order
// exactly like vec.Dot, the total order of Better makes each top-k set
// unique, and AppendResults drains each heap worst-first into the tail of
// the output so the final order is descending, as a Searcher emits. A batch
// of one is every known-k search in the package (Top1, Search,
// SearchAppend).
package topk

import (
	"math/bits"
	"sync"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/pagedfile"
	"prefmatch/internal/pqueue"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// batchEntry is a shared-frontier entry: an R-tree node keyed on the largest
// upper bound among the functions the node was useful to at push time. Bit i
// of mask stands for function lo+i of the current traversal (see walk), and
// bounds[off:off+popcount(mask)] holds those functions' own push-time bounds
// in ascending function order. Page order breaks ties for determinism.
type batchEntry struct {
	bound float64
	mask  uint64
	page  pagedfile.PageID
	off   int32
}

// batchWidth is the most functions one traversal serves: one mask bit each.
const batchWidth = 64

func batchBetter(a, b batchEntry) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	return a.page < b.page
}

// batchResult is one entry of a per-function result heap, with the coordinate
// sum cached so sifts never recompute it.
type batchResult struct {
	score float64
	sum   float64
	id    index.ObjID
	point vec.Point
}

// worseBatch reports whether a ranks strictly below b in the total result
// order of Better (lower score, then smaller sum, then larger ID). The
// per-function heaps are min-heaps under this order, so the root is always
// the k-th best — the eviction candidate and the pruning threshold.
func worseBatch(a, b batchResult) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	return a.id > b.id
}

func siftUp(h []batchResult, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseBatch(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []batchResult, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && worseBatch(h[r], h[l]) {
			m = r
		}
		if !worseBatch(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// BatchSearcher answers top-k for a batch of preference functions in one
// shared best-first traversal. Like Searcher it is resettable and poolable:
// Reset rebinds it to a (tree, functions, ks) triple keeping every backing
// array, so a warmed searcher serves a steady stream of batches without
// allocating. The search is only valid while the underlying tree is not
// modified.
//
// Usage: Reset (or AcquireBatchSearcher), then Run once, then AppendResults
// per function, then Release.
type BatchSearcher struct {
	tree index.ObjectIndex
	c    *stats.Counters

	// Per-function state, all indexed by position in the batch.
	fns    []prefs.Preference
	lins   []prefs.Function
	ks     []int
	heaps  [][]batchResult // min-heaps: root is the current k-th best
	active []bool

	lo        int  // first function of the current traversal (mask bit 0)
	nActive   int  // active functions of the current traversal
	allLinear bool // every function linear with matching dimensionality
	d         int

	// Per-node packed weight rows: rebuilt at each expansion from the
	// functions that pass the popped entry's pop-time test, so the kernels
	// pay only for the functions this node can still serve.
	wnode   []float64
	nodeIdx []int

	// Kernel output scratch, sized to the widest node seen.
	scores []float64
	sums   []float64

	frontier pqueue.Queue[batchEntry]
	bounds   []float64 // per-function push-time bounds of the current traversal's entries

	cancel cancel.Token // zero Token: never cancels
}

// NewBatchSearcher returns an unbound reusable batch searcher; call Reset
// before Run.
func NewBatchSearcher() *BatchSearcher {
	b := &BatchSearcher{}
	b.frontier.Init(batchBetter)
	return b
}

// Reset rebinds the searcher to a fresh batched search: function i wants its
// ks[i] best objects from t (a non-positive ks[i] asks for nothing). Work is
// charged to c (nil means the tree's own counters). fns and ks are copied, so
// the caller may reuse them immediately. Every backing array is retained.
func (b *BatchSearcher) Reset(t index.ObjectIndex, fns []prefs.Preference, ks []int, c *stats.Counters) {
	if len(fns) != len(ks) {
		panic("topk: batch functions and ks lengths differ")
	}
	if c == nil {
		c = t.Counters()
	}
	b.tree, b.c = t, c
	b.d = t.Dim()
	b.cancel = cancel.Token{}
	b.fns = append(b.fns[:0], fns...)
	b.ks = append(b.ks[:0], ks...)
	b.lins = b.lins[:0]
	b.allLinear = true
	for _, p := range fns {
		f, ok := prefs.Linear(p)
		if !ok || f.Dim() != b.d {
			// One odd function sends the whole batch down the generic path;
			// results are unchanged (Function.Score and the kernels agree
			// bit for bit), only the scoring loop shape differs.
			b.allLinear = false
		}
		b.lins = append(b.lins, f)
	}
	for len(b.heaps) < len(fns) {
		b.heaps = append(b.heaps, nil)
	}
	b.heaps = b.heaps[:len(fns)]
	for len(b.active) < len(fns) {
		b.active = append(b.active, false)
	}
	b.active = b.active[:len(fns)]
	for i := range fns {
		h := b.heaps[i]
		clear(h[:cap(h)])
		b.heaps[i] = h[:0]
		b.active[i] = ks[i] > 0
	}
	b.frontier.Reset()
	b.frontier.SetCounters(c)
	c.Top1Searches += int64(len(fns))
}

// SetCancel arms cooperative cancellation for the batch: Run checks the
// token immediately before every node read (the unit of both latency and
// I/O, so a canceled batch stops within about one node expansion) and
// aborts the whole batch with the stage-tagged error. Call between Reset
// and Run; Reset and Release disarm it, so pooled searchers never inherit
// a previous request's deadline. The zero Token never cancels.
func (b *BatchSearcher) SetCancel(t cancel.Token) { b.cancel = t }

// batchPool recycles warmed batch searchers across requests and goroutines,
// so a steady-state caller does not allocate a frontier per search.
var batchPool = sync.Pool{New: func() any { return NewBatchSearcher() }}

// AcquireBatchSearcher returns a pooled batch searcher already Reset for
// (t, fns, ks, c). The caller must Release it afterwards.
func AcquireBatchSearcher(t index.ObjectIndex, fns []prefs.Preference, ks []int, c *stats.Counters) *BatchSearcher {
	b := batchPool.Get().(*BatchSearcher)
	b.Reset(t, fns, ks, c)
	return b
}

// Release drops every reference the searcher holds (so a pooled searcher
// cannot pin a tree, an arena slab, or a caller's weights) and returns it to
// the pool.
func (b *BatchSearcher) Release() {
	b.tree, b.c = nil, nil
	b.cancel = cancel.Token{}
	clear(b.fns)
	b.fns = b.fns[:0]
	clear(b.lins)
	b.lins = b.lins[:0]
	for i := range b.heaps {
		h := b.heaps[i]
		clear(h[:cap(h)])
		b.heaps[i] = h[:0]
	}
	b.frontier.Reset()
	b.frontier.SetCounters(nil)
	batchPool.Put(b)
}

// useful reports whether an entry with the given upper bound can still change
// function f's result set: the heap is not full, or the bound reaches the
// k-th best score (an equal score can still win on the sum/ID tie-break, so
// the comparison is non-strict).
func (b *BatchSearcher) useful(f int, bound float64) bool {
	h := b.heaps[f]
	return len(h) < b.ks[f] || bound >= h[0].score
}

// offer proposes an object to function f's heap, evicting the current k-th
// best when the candidate beats it under the total order.
func (b *BatchSearcher) offer(f int, score, sum float64, id index.ObjID, point vec.Point) {
	h := b.heaps[f]
	if len(h) < b.ks[f] {
		h = append(h, batchResult{score: score, sum: sum, id: id, point: point})
		siftUp(h, len(h)-1)
		b.heaps[f] = h
		return
	}
	cand := batchResult{score: score, sum: sum, id: id, point: point}
	if worseBatch(h[0], cand) {
		h[0] = cand
		siftDown(h, 0)
	}
}

// selectNode rebuilds nodeIdx (and, for linear batches, the packed weight
// rows) as the functions the popped entry e can still serve: those in its
// mask that are active and whose own push-time bound still passes useful.
// Returns false when none does, in which case the node need not even be
// read.
func (b *BatchSearcher) selectNode(e batchEntry) bool {
	b.nodeIdx = b.nodeIdx[:0]
	run := b.bounds[e.off:]
	for j, m := 0, e.mask; m != 0; j, m = j+1, m&(m-1) {
		f := b.lo + bits.TrailingZeros64(m)
		if b.active[f] && b.useful(f, run[j]) {
			b.nodeIdx = append(b.nodeIdx, f)
		}
	}
	if len(b.nodeIdx) == 0 {
		return false
	}
	if b.allLinear {
		b.wnode = b.wnode[:0]
		for _, f := range b.nodeIdx {
			b.wnode = append(b.wnode, b.lins[f].Weights...)
		}
	}
	return true
}

// growF resizes a float scratch slice to n values, reusing its array.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Run executes the shared traversal to completion, one walk per batchWidth
// functions. After Run returns, the per-function heaps hold each function's
// top-k; collect them with AppendResults. Run is single-use per Reset.
func (b *BatchSearcher) Run() error {
	for lo := 0; lo < len(b.fns); lo += batchWidth {
		if err := b.walk(lo, min(lo+batchWidth, len(b.fns))); err != nil {
			return err
		}
	}
	return nil
}

// walk is one shared traversal serving functions [lo, hi), at most
// batchWidth of them. The root's bounds run holds inf for every active
// function.
func (b *BatchSearcher) walk(lo, hi int) error {
	b.lo, b.nActive = lo, 0
	b.frontier.Reset()
	b.bounds = b.bounds[:0]
	var mask uint64
	for f := lo; f < hi; f++ {
		if b.active[f] {
			mask |= 1 << uint(f-lo)
			b.bounds = append(b.bounds, inf)
			b.nActive++
		}
	}
	root := b.tree.RootPage()
	if mask == 0 || root == pagedfile.InvalidPage {
		return nil
	}
	b.frontier.Push(batchEntry{bound: inf, mask: mask, page: root})
	for b.nActive > 0 {
		top, ok := b.frontier.Pop()
		if !ok {
			return nil
		}
		// The frontier pops in descending key order, so top.bound caps every
		// remaining entry: any function whose k-th best already beats it is
		// finished for good.
		for f := lo; f < hi; f++ {
			if b.active[f] && !b.useful(f, top.bound) {
				b.active[f] = false
				b.nActive--
			}
		}
		if b.nActive == 0 {
			return nil
		}
		if !b.selectNode(top) {
			// Every function this node was pushed for has finished or has
			// since outgrown its own bound here. Skip the read entirely.
			continue
		}
		if err := b.cancel.Check("topk.traverse"); err != nil {
			return err
		}
		n, err := b.tree.ReadNode(top.page)
		if err != nil {
			return err
		}
		b.c.NodesVisited++
		if b.allLinear && b.expandLinearBatch(n) {
			continue
		}
		b.expandGeneric(n)
	}
	return nil
}

// pushChildren pushes each child of internal node n that is useful to at
// least one selected function. b.scores holds the bounds matrix, row r for
// function nodeIdx[r], column i for child i of m. Each pushed entry's run of
// per-function bounds is appended to b.bounds.
func (b *BatchSearcher) pushChildren(n index.Node, m int) {
	for i := 0; i < m; i++ {
		off := len(b.bounds)
		key := 0.0
		var mask uint64
		for r, f := range b.nodeIdx {
			if bd := b.scores[r*m+i]; b.useful(f, bd) {
				if mask == 0 || bd > key {
					key = bd
				}
				mask |= 1 << uint(f-b.lo)
				b.bounds = append(b.bounds, bd)
			}
		}
		if mask != 0 {
			b.frontier.Push(batchEntry{bound: key, mask: mask, page: n.ChildPage(i), off: int32(off)})
		}
	}
}

// expandLinearBatch scores the node's entries for the selected functions
// (nodeIdx/wnode, built by selectNode) with one blocked kernel call over the
// backend's flat slabs. It reports false when the node does not expose flat
// storage (the caller falls back to the generic path).
func (b *BatchSearcher) expandLinearBatch(n index.Node) bool {
	nsel, d := len(b.nodeIdx), b.d
	if n.Leaf() {
		fl, ok := n.(index.FlatLeaf)
		if !ok {
			return false
		}
		ids, pts := fl.FlatItems()
		m := len(ids)
		b.scores = growF(b.scores, nsel*m)
		b.sums = growF(b.sums, m)
		vec.DotSumBatch(b.wnode, nsel, d, pts, b.scores, b.sums)
		b.c.ScoreEvals += int64(nsel * m)
		// Function-major: each function scans its own contiguous score row,
		// and the overwhelmingly common case — a full heap whose k-th best
		// strictly beats the candidate — is rejected inline without building
		// a result (equal scores fall through to offer for the tie-break).
		for r, f := range b.nodeIdx {
			row := b.scores[r*m : r*m+m : r*m+m]
			k := b.ks[f]
			for i, sc := range row {
				if h := b.heaps[f]; len(h) == k && h[0].score > sc {
					continue
				}
				b.offer(f, sc, b.sums[i], ids[i], pts[i*d:i*d+d:i*d+d])
			}
		}
		return true
	}
	fi, ok := n.(index.FlatInternal)
	if !ok {
		return false
	}
	_, hi := fi.FlatRects() // monotone bound over an MBR needs the top corner only
	m := n.Len()
	b.scores = growF(b.scores, nsel*m)
	vec.MBRBoundsBatch(b.wnode, nsel, d, hi, b.scores)
	b.c.ScoreEvals += int64(nsel * m)
	b.pushChildren(n, m)
	return true
}

// expandGeneric scores the node's entries for the selected functions
// through the prefs.Preference interface — the path for monotone non-linear
// preferences, dimension-mismatched batches, and backends without flat
// storage.
func (b *BatchSearcher) expandGeneric(n index.Node) {
	nsel, m := len(b.nodeIdx), n.Len()
	b.c.ScoreEvals += int64(nsel * m)
	if n.Leaf() {
		for i := 0; i < m; i++ {
			it := n.Object(i)
			sum := it.Point.Sum()
			for _, f := range b.nodeIdx {
				b.offer(f, b.fns[f].Score(it.Point), sum, it.ID, it.Point)
			}
		}
		return
	}
	b.scores = growF(b.scores, nsel*m)
	for i := 0; i < m; i++ {
		r := n.Rect(i)
		for j, f := range b.nodeIdx {
			b.scores[j*m+i] = b.fns[f].UpperBound(r)
		}
	}
	b.pushChildren(n, m)
}

// Len returns the number of results collected for function f (at most ks[f],
// fewer when the tree holds fewer visible objects). Valid after Run, before
// AppendResults drains the heap.
func (b *BatchSearcher) Len(f int) int { return len(b.heaps[f]) }

// AppendResults appends function f's results to dst in descending preference
// order — the order a Searcher emits — and returns the extended slice. It
// drains the heap worst-first into the tail of the output, so call it once
// per function after Run.
func (b *BatchSearcher) AppendResults(f int, dst []Result) []Result {
	h := b.heaps[f]
	m := len(h)
	base := len(dst)
	for i := 0; i < m; i++ {
		dst = append(dst, Result{})
	}
	for i := m - 1; i >= 0; i-- {
		r := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if last > 0 {
			siftDown(h, 0)
		}
		dst[base+i] = Result{ID: r.id, Point: r.point, Score: r.score}
	}
	b.heaps[f] = h
	return dst
}
