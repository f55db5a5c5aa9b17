// Package topk implements branch-and-bound ranked search over the disk
// R-tree, following Tao et al., "Branch-and-bound processing of ranked
// queries" (reference [3] of the paper). It is the top-1 module of the Brute
// Force and Chain matchers.
//
// The search is best-first on an upper-bound priority queue: an intermediate
// entry's key is the preference's upper bound over its MBR (for monotone
// preferences, the score of the MBR's top corner), an object's key is its
// exact score. Objects therefore surface in exact descending score order,
// with the deterministic function-side tie-breaks of package prefs
// (coordinate sum, then object ID), and only the R-tree nodes whose bound
// reaches the current frontier are read.
//
// # Serving path
//
// Every known-k search is a BatchSearcher walk (batch.go): Top1, Search and
// SearchAppend run a pooled batch of one, so a bounded search keeps only
// nodes in its frontier and offers leaf objects to a k-slot heap. Searcher
// is the resumable form, kept for the one consumer that cannot know k up
// front: the incremental Brute Force ablation. Both are resettable, so a
// steady-state caller performs zero allocations per query. When the
// preference is a linear prefs.Function and the backend exposes columnar
// node storage (index.FlatLeaf / index.FlatInternal — the memory backend
// does), scoring runs devirtualized over the flat slabs with no per-entry
// interface dispatch. All paths produce bit-identical results.
package topk

import (
	"prefmatch/internal/index"
	"prefmatch/internal/pagedfile"
	"prefmatch/internal/pqueue"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// Result is one ranked-search answer.
type Result struct {
	ID    index.ObjID
	Point vec.Point
	Score float64
}

// Better is the total order of ranked results: higher score first, then
// larger coordinate sum, then smaller object ID (the deterministic
// function-side preference of package prefs). It is the order every search
// emits — and therefore the order any merger of per-partition result
// streams must use to stay bit-identical to a single search.
func Better(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if sa, sb := a.Point.Sum(), b.Point.Sum(); sa != sb {
		return sa > sb
	}
	return a.ID < b.ID
}

// heapItem is either an R-tree node (isObj false) or an object.
type heapItem struct {
	bound float64 // node: upper bound over MBR; object: exact score
	isObj bool
	// object fields
	id    index.ObjID
	point vec.Point
	sum   float64
	// node field
	page pagedfile.PageID
}

// better orders the search frontier: higher bound first; on a bound tie a
// node precedes an object (the node might contain an equal-score object that
// wins the tie-break); two objects follow the canonical result order of
// Better, using the sum cached at push time instead of recomputing it per
// sift (the agreement is enforced by TestFrontierOrderAgreesWithBetter);
// two nodes by page for determinism.
func better(a, b heapItem) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.isObj != b.isObj {
		return !a.isObj // node first
	}
	if !a.isObj {
		return a.page < b.page
	}
	if a.sum != b.sum {
		return a.sum > b.sum
	}
	return a.id < b.id
}

// Searcher is a resumable incremental ranked search: successive Next calls
// return objects in exact descending preference order. The search is only
// valid while the underlying tree is not modified; after an insertion or
// deletion a new search must be started via Reset.
//
// A Searcher is reusable: Reset rebinds it to a new (tree, preference) pair
// while keeping the frontier's backing array, so steady-state ranked search
// allocates nothing. The incremental Brute Force matcher keeps one live per
// function. A search that knows its k should run a BatchSearcher instead
// (SearchAppend).
type Searcher struct {
	tree     index.ObjectIndex
	pref     prefs.Preference
	lin      prefs.Function // devirtualized copy of pref when linear
	isLinear bool
	frontier pqueue.Queue[heapItem]
	counters *stats.Counters
}

// NewSearcher returns an unbound reusable searcher; call Reset before Next.
func NewSearcher() *Searcher {
	s := &Searcher{}
	s.frontier.Init(better)
	return s
}

// Reset rebinds the searcher to a fresh ranked search for pref over t,
// charging work to c (nil means the tree's own counters). The frontier's
// backing array is retained, so a warmed searcher performs no allocations.
func (s *Searcher) Reset(t index.ObjectIndex, pref prefs.Preference, c *stats.Counters) {
	if c == nil {
		c = t.Counters()
	}
	s.tree, s.pref, s.counters = t, pref, c
	s.lin, s.isLinear = prefs.Linear(pref)
	if s.isLinear && s.lin.Dim() != t.Dim() {
		// A dimension-mismatched function cannot stride the flat slabs;
		// take the generic path, which degrades exactly like Function.Score
		// (scoring the first len(Weights) coordinates).
		s.isLinear = false
	}
	s.frontier.Reset()
	s.frontier.SetCounters(c)
	c.Top1Searches++
	if root := t.RootPage(); root != pagedfile.InvalidPage {
		// The root's true bound is unknown before reading it; +Inf keeps it
		// first without an extra I/O here.
		s.frontier.Push(heapItem{bound: inf, page: root})
	}
}

const inf = 1e300 // larger than any normalised score; avoids math.Inf in keys

// Next returns the next best object, or ok == false when the tree is
// exhausted.
func (s *Searcher) Next() (Result, bool, error) {
	for {
		top, ok := s.frontier.Pop()
		if !ok {
			return Result{}, false, nil
		}
		if top.isObj {
			return Result{ID: top.id, Point: top.point, Score: top.bound}, true, nil
		}
		n, err := s.tree.ReadNode(top.page)
		if err != nil {
			return Result{}, false, err
		}
		s.counters.NodesVisited++
		if s.isLinear && s.expandLinear(n) {
			continue
		}
		for i := 0; i < n.Len(); i++ {
			if n.Leaf() {
				it := n.Object(i)
				s.counters.ScoreEvals++
				s.frontier.Push(heapItem{
					bound: s.pref.Score(it.Point),
					isObj: true,
					id:    it.ID,
					point: it.Point,
					sum:   it.Point.Sum(),
				})
			} else {
				s.counters.ScoreEvals++
				s.frontier.Push(heapItem{
					bound: s.pref.UpperBound(n.Rect(i)),
					page:  n.ChildPage(i),
				})
			}
		}
	}
}

// expandLinear pushes n's entries scoring the devirtualized linear function
// over the backend's flat columnar storage — no interface dispatch, no Rect
// or Item materialisation per entry. It reports false when the node does not
// expose flat storage (the caller falls back to the generic path). Scores,
// bounds and sums are accumulated in the same order as Function.Score /
// Point.Sum, so results are bit-identical to the generic path.
func (s *Searcher) expandLinear(n index.Node) bool {
	w := s.lin.Weights
	d := len(w)
	if n.Leaf() {
		fl, ok := n.(index.FlatLeaf)
		if !ok {
			return false
		}
		ids, pts := fl.FlatItems()
		for i, id := range ids {
			p := pts[i*d : i*d+d : i*d+d]
			dot, sum := vec.DotSum(w, p)
			s.counters.ScoreEvals++
			s.frontier.Push(heapItem{
				bound: dot,
				isObj: true,
				id:    id,
				point: vec.Point(p),
				sum:   sum,
			})
		}
		return true
	}
	fi, ok := n.(index.FlatInternal)
	if !ok {
		return false
	}
	_, hi := fi.FlatRects() // a monotone bound over an MBR needs the top corner only
	for i := 0; i < n.Len(); i++ {
		s.counters.ScoreEvals++
		s.frontier.Push(heapItem{
			bound: vec.Dot(w, hi[i*d:i*d+d]),
			page:  n.ChildPage(i),
		})
	}
	return true
}

// Top1 returns the single best object in t for pref, with ok == false when t
// is empty: SearchAppend with k = 1 into a stack buffer.
func Top1(t index.ObjectIndex, pref prefs.Preference, c *stats.Counters) (Result, bool, error) {
	var buf [1]Result
	out, err := SearchAppend(buf[:0], t, pref, 1, c)
	if err != nil || len(out) == 0 {
		return Result{}, false, err
	}
	return out[0], true, nil
}

// Search returns the k best objects in descending preference order (fewer
// when the tree holds fewer than k objects). A non-positive k returns
// (nil, nil). The result is sized by what the tree can hold, never by k
// alone, so a huge k costs no more than k = t.Len().
func Search(t index.ObjectIndex, pref prefs.Preference, k int, c *stats.Counters) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	return SearchAppend(make([]Result, 0, min(k, t.Len())), t, pref, k, c)
}

// SearchAppend appends the up-to-k best objects to dst, best first, and
// returns the extended slice — the allocation-free form of Search for
// callers that reuse a result buffer across queries. It runs a pooled
// BatchSearcher of one: it reads the nodes a drained Searcher would read to
// emit k results, but offers leaf objects to a k-slot heap instead of
// pushing each into the frontier. A non-positive k returns dst unchanged.
func SearchAppend(dst []Result, t index.ObjectIndex, pref prefs.Preference, k int, c *stats.Counters) ([]Result, error) {
	if k <= 0 {
		return dst, nil
	}
	fns, ks := [1]prefs.Preference{pref}, [1]int{k}
	b := AcquireBatchSearcher(t, fns[:], ks[:], c)
	defer b.Release()
	if err := b.Run(); err != nil {
		return dst, err
	}
	return b.AppendResults(0, dst), nil
}
