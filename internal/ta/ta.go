// Package ta implements the reverse top-1 search of § IV-A: given a skyline
// object o, find the preference function in F that scores o highest, by
// adapting the Threshold Algorithm of Fagin et al. (reference [6] of the
// paper) over D sorted coefficient lists.
//
// List Lᵢ holds (f.αᵢ, f) for every function f, sorted descending on the
// i-th coefficient. The search consumes the lists round-robin, keeping the
// best m functions seen so far, and stops as soon as the m-th best score
// exceeds a threshold that upper-bounds every unseen function: Fagin et
// al.'s top-k stop, of which the paper's reverse top-1 is the m = 1 case.
// The SB matcher keeps each skyline object's top-m list. Functions only
// leave during a matching, so the first alive entry of an exact list is the
// object's best function until every entry has been matched, and only then
// does the object need a new search.
//
// The naive TA threshold T = Σ lᵢ·oᵢ (lᵢ = last coefficient seen in list i)
// ignores that the coefficients of a normalised function sum to 1, so
// Σ lᵢ may exceed 1. The paper's tight threshold T_tight spends a budget
// B = 1 over the dimensions in descending order of oᵢ, taking
// βᵢ = min(B, lᵢ) — the fractional-knapsack optimum over {β ≤ l, Σβ ≤ 1} —
// which is a valid and usually much smaller bound, so the scan stops
// earlier. Both thresholds are implemented; the ablation benchmark compares
// them.
//
// The lists are flat: each entry carries its coefficient and function
// position, and scoring reads a dim-strided weight slab rather than the
// functions themselves. Assigned functions are compacted out of the lists
// before the next search instead of being skipped during it. A skipped
// entry was never counted as a list access, so TAListAccesses (and every
// answer) is the same as with lazy skipping.
package ta

import (
	"fmt"
	"sort"

	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// thresholdSlack guards the stop condition against floating-point error.
// The threshold is an algebraic bound that relies on Σαᵢ = 1, but the
// normalised weights sum to 1 only up to an ulp, and both the threshold and
// the scores accumulate rounding of order 1e-16·D. An unseen function's
// float score can therefore exceed the float threshold by a few ulps — and
// since exact score ties are broken by function ID, stopping there could
// miss an equal-score function with a smaller ID. Scores live in [0, 1], so
// an absolute slack of 1e-9 is ~10⁶ times the worst-case rounding while
// costing almost no extra list accesses.
const thresholdSlack = 1e-9

// listEntry is one position of a sorted coefficient list.
type listEntry struct {
	w   float64 // the coefficient f.αᵢ
	idx int32   // position of f in the function slice
}

// Lists is the sorted-list index over a function set. It is the data
// structure behind the SB matcher's BestPair module. Remove marks a
// function dead; the next ReverseTopM compacts the dead entries out of the
// D lists first, so the scan never meets one.
type Lists struct {
	d       int
	weights []float64 // function i's weights are weights[i*d : i*d+d]
	ids     []int     // function i's ID
	lists   [][]listEntry
	alive   []bool
	live    int
	dirty   bool // a function was removed since the last compaction
	c       *stats.Counters

	// TightThreshold selects the paper's T_tight bound (default) over the
	// naive TA threshold; the ablation benchmark flips it.
	TightThreshold bool

	// Per-query scratch, reused across calls to avoid allocation.
	stamp    []int
	queryID  int
	cursors  []int
	lastSeen []float64
	dimOrder []int
}

// NewLists builds the D sorted coefficient lists over fns. All functions
// must share the same dimensionality, and there must be at least one.
func NewLists(fns []prefs.Function, c *stats.Counters) (*Lists, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("ta: empty function set")
	}
	d := fns[0].Dim()
	for i := range fns {
		if fns[i].Dim() != d {
			return nil, fmt.Errorf("ta: function %d has dimension %d, want %d", i, fns[i].Dim(), d)
		}
	}
	if c == nil {
		c = &stats.Counters{}
	}
	l := &Lists{
		d:              d,
		weights:        make([]float64, 0, len(fns)*d),
		ids:            make([]int, len(fns)),
		lists:          make([][]listEntry, d),
		alive:          make([]bool, len(fns)),
		live:           len(fns),
		c:              c,
		TightThreshold: true,
		stamp:          make([]int, len(fns)),
		cursors:        make([]int, d),
		lastSeen:       make([]float64, d),
		dimOrder:       make([]int, d),
	}
	for i := range fns {
		l.alive[i] = true
		l.weights = append(l.weights, fns[i].Weights...)
		l.ids[i] = fns[i].ID
	}
	for dim := 0; dim < d; dim++ {
		entries := make([]listEntry, len(fns))
		for i := range fns {
			entries[i] = listEntry{w: fns[i].Weights[dim], idx: int32(i)}
		}
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].w != entries[b].w {
				return entries[a].w > entries[b].w
			}
			return entries[a].idx < entries[b].idx
		})
		l.lists[dim] = entries
	}
	return l, nil
}

// Dim returns the dimensionality of the indexed functions.
func (l *Lists) Dim() int { return l.d }

// AliveCount returns the number of functions not yet removed.
func (l *Lists) AliveCount() int { return l.live }

// Alive reports whether function i is still unassigned.
func (l *Lists) Alive(i int) bool { return l.alive[i] }

// Remove marks function i as assigned; it will be skipped by all future
// searches. Removing twice is an error (the matcher must not double-assign).
func (l *Lists) Remove(i int) error {
	if i < 0 || i >= len(l.alive) {
		return fmt.Errorf("ta: function index %d out of range", i)
	}
	if !l.alive[i] {
		return fmt.Errorf("ta: function %d already removed", i)
	}
	l.alive[i] = false
	l.live--
	l.dirty = true
	return nil
}

// compact drops the removed functions' entries from every list, keeping
// each list's order.
func (l *Lists) compact() {
	for dim, entries := range l.lists {
		kept := entries[:0]
		for _, e := range entries {
			if l.alive[e.idx] {
				kept = append(kept, e)
			}
		}
		l.lists[dim] = kept
	}
	l.dirty = false
}

// Hit is one function of a reverse top-m answer: its position in the
// function slice and its score for the object.
type Hit struct {
	Idx   int32
	Score float64
}

// ReverseTopM appends to dst the alive functions that score o highest, at
// most m of them, best first under the object-side order (higher score,
// then smaller function ID), and returns the extended slice. It appends
// nothing when no function remains. o must have the lists' dimensionality,
// and m must be at least 1.
//
// The scan stops once the m-th best score seen exceeds the threshold by
// thresholdSlack, so every unseen function ranks strictly below all m hits
// and the list is exact, ties included. With m = 1 this is § IV-A's
// reverse top-1, access for access.
func (l *Lists) ReverseTopM(o vec.Point, m int, dst []Hit) []Hit {
	if len(o) != l.d {
		panic(fmt.Sprintf("ta: object dimension %d, lists dimension %d", len(o), l.d))
	}
	if m < 1 {
		panic(fmt.Sprintf("ta: reverse top-%d", m))
	}
	if l.live == 0 {
		return dst
	}
	if l.dirty {
		l.compact()
	}
	l.queryID++
	qid := l.queryID
	for i := 0; i < l.d; i++ {
		l.cursors[i] = 0
		l.lastSeen[i] = 0
	}
	// Rank dimensions by descending oᵢ once per query (the β construction).
	rankDims(l.dimOrder, o)

	d := l.d
	base := len(dst)
	seen, accesses := 0, 0
	for {
		progressed := false
		for dim := 0; dim < d; dim++ {
			entries := l.lists[dim]
			cur := l.cursors[dim]
			if cur >= len(entries) {
				continue
			}
			e := entries[cur]
			l.cursors[dim] = cur + 1
			l.lastSeen[dim] = e.w
			accesses++
			progressed = true
			if l.stamp[e.idx] != qid {
				l.stamp[e.idx] = qid
				seen++
				i := int(e.idx)
				// vec.Dot accumulates w·o in Function.Score's order, so the
				// score is bit-identical.
				score := vec.Dot(l.weights[i*d:i*d+d:i*d+d], o)
				// A score below a full list's last cannot enter it; most
				// functions seen are rejected here, without a call.
				if len(dst)-base < m || score >= dst[len(dst)-1].Score {
					dst = Offer(dst, base, m, Hit{Idx: e.idx, Score: score}, l.ids)
				}
			}
		}
		if seen >= l.live || !progressed {
			break
		}
		if len(dst)-base == m && dst[len(dst)-1].Score > l.threshold(o)+thresholdSlack {
			break
		}
	}
	l.c.TAListAccesses += int64(accesses)
	l.c.ScoreEvals += int64(seen)
	return dst
}

// Offer inserts h into the best-first list dst[base:], which holds at most
// m hits, and returns the list: h goes after every hit that beats it under
// the object-side order (higher score, then smaller ID; ids maps a
// function position to its ID), and the worst hit drops out of a full
// list. A hit that ranks below a full list's last is not kept.
func Offer(dst []Hit, base, m int, h Hit, ids []int) []Hit {
	id := ids[h.Idx]
	i := len(dst)
	if i-base == m {
		if last := dst[i-1]; !prefs.BetterFunc(h.Score, id, last.Score, ids[last.Idx]) {
			return dst
		}
		i--
	} else {
		dst = append(dst, h)
	}
	for ; i > base && prefs.BetterFunc(h.Score, id, dst[i-1].Score, ids[dst[i-1].Idx]); i-- {
		dst[i] = dst[i-1]
	}
	dst[i] = h
	return dst
}

// threshold returns the current stopping bound: an upper bound on the score
// of every alive function not yet encountered in any list.
func (l *Lists) threshold(o vec.Point) float64 {
	if !l.TightThreshold {
		t := 0.0
		for i := 0; i < l.d; i++ {
			t += l.lastSeen[i] * o[i]
		}
		return t
	}
	return l.tight(o)
}

// tight computes T_tight = Σ βᵢ·oᵢ per § IV-A over the query's dimension
// ranking.
func (l *Lists) tight(o vec.Point) float64 { return knapsack(l.dimOrder, l.lastSeen, o) }

// rankDims fills order with the dimensions 0..len(order)-1 by descending
// o[dim], ties to the smaller dimension. D is small, so an insertion sort
// beats sort.Slice and allocates nothing; the comparison is a strict total
// order, so the ranking is the same either way.
func rankDims(order []int, o vec.Point) {
	for i := range order {
		j := i
		for j > 0 && o[order[j-1]] < o[i] {
			order[j] = order[j-1]
			j--
		}
		order[j] = i
	}
}

// knapsack spends budget B = 1 over the dimensions in order with
// βᵢ = min(B, lastSeenᵢ) and returns Σ βᵢ·oᵢ.
func knapsack(order []int, lastSeen, o vec.Point) float64 {
	b := 1.0
	t := 0.0
	for _, dim := range order {
		if b <= 0 {
			break
		}
		beta := lastSeen[dim]
		if beta > b {
			beta = b
		}
		t += beta * o[dim]
		b -= beta
	}
	return t
}

// TightBound computes the § IV-A bound for arbitrary per-list ceilings
// lastSeen and object o: the maximum of Σ βᵢ·oᵢ over β with 0 ≤ βᵢ ≤
// lastSeenᵢ and Σ βᵢ ≤ 1, solved greedily (fractional knapsack). It is
// exported for property tests and ablation tooling.
func TightBound(lastSeen, o vec.Point) float64 {
	order := make([]int, len(o))
	rankDims(order, o)
	return knapsack(order, lastSeen, o)
}

// NaiveThreshold exposes the naive bound for tests and ablations.
func (l *Lists) NaiveThreshold(o vec.Point) float64 {
	save := l.TightThreshold
	l.TightThreshold = false
	t := l.threshold(o)
	l.TightThreshold = save
	return t
}

// TightThresholdValue exposes the tight bound for tests and ablations.
func (l *Lists) TightThresholdValue(o vec.Point) float64 { return l.tight(o) }
