package skyline

import (
	"fmt"
	"sort"

	"prefmatch/internal/index"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// DomSet is a columnar dominance index over a set of skyline objects: their
// points in one dim-strided slab, kept in descending order of coordinate
// sum, with the sums and owning objects alongside. It answers "which member
// dominates p?" with a flat scan that stops at the first member whose sum
// is below p's.
//
// The early exit is exact. A dominator is ≥ p in every coordinate, and
// floating-point addition in a fixed order is monotone under
// round-to-nearest, so the dominator's computed sum (Point.Sum, ascending
// coordinate order) is never smaller than p's. Members with an equal sum
// are still scanned: a point can strictly dominate another and round to the
// same sum.
//
// The zero value is an empty set; the first Insert fixes the
// dimensionality.
type DomSet struct {
	dim  int
	pts  []float64 // row i is objs[i].Point
	sums []float64 // descending; equal sums keep insertion order
	objs []*Object
}

// Reset empties the set, keeping its storage.
func (s *DomSet) Reset() {
	clear(s.objs)
	s.pts, s.sums, s.objs = s.pts[:0], s.sums[:0], s.objs[:0]
}

// Insert adds o at its sum rank (a binary search), after every member with
// an equal sum. o.Sum must be o.Point.Sum(), or the early exit is unsound.
func (s *DomSet) Insert(o *Object) {
	if len(s.objs) == 0 {
		s.dim = len(o.Point)
	} else if len(o.Point) != s.dim {
		panic(fmt.Sprintf("skyline: inserting a dim %d point into a dim %d dominance set", len(o.Point), s.dim))
	}
	i := sort.Search(len(s.sums), func(i int) bool { return s.sums[i] < o.Sum })
	s.sums = append(s.sums, 0)
	copy(s.sums[i+1:], s.sums[i:])
	s.sums[i] = o.Sum
	s.objs = append(s.objs, nil)
	copy(s.objs[i+1:], s.objs[i:])
	s.objs[i] = o
	d := s.dim
	s.pts = append(s.pts, o.Point...)
	copy(s.pts[(i+1)*d:], s.pts[i*d:])
	copy(s.pts[i*d:(i+1)*d], o.Point)
}

// Drop removes every member whose ID is in gone, filtering the columns in
// place: the survivors keep their relative (sum) order, so nothing is
// re-sorted.
func (s *DomSet) Drop(gone map[index.ObjID]bool) {
	d := s.dim
	n := 0
	for i, o := range s.objs {
		if gone[o.ID] {
			continue
		}
		if n != i {
			s.objs[n] = o
			s.sums[n] = s.sums[i]
			copy(s.pts[n*d:(n+1)*d], s.pts[i*d:(i+1)*d])
		}
		n++
	}
	clear(s.objs[n:])
	s.objs, s.sums, s.pts = s.objs[:n], s.sums[:n], s.pts[:n*d]
}

// Dominator returns a member dominating p, or nil, charging one dominance
// check to c per member tested. Among several dominators it returns the
// one with the largest sum (the earliest inserted on ties).
func (s *DomSet) Dominator(p vec.Point, c *stats.Counters) *Object {
	if len(s.objs) == 0 {
		return nil
	}
	d := s.dim
	if len(p) != d {
		panic(fmt.Sprintf("skyline: dominance between dim %d and dim %d", d, len(p)))
	}
	ps := p.Sum()
	var found *Object
	checks := 0
	for i, sum := range s.sums {
		if sum < ps {
			break
		}
		checks++
		if dominates(s.pts[i*d:i*d+d:i*d+d], p) {
			found = s.objs[i]
			break
		}
	}
	c.DominanceChecks += int64(checks)
	return found
}

// dominates is vec.Point.Dominates over a slab row: a ≥ p in every
// coordinate and > in at least one. len(p) must equal len(a).
func dominates(a []float64, p vec.Point) bool {
	p = p[:len(a)]
	strict := false
	for j, v := range a {
		if v < p[j] {
			return false
		}
		if v > p[j] {
			strict = true
		}
	}
	return strict
}
