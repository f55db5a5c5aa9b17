package skyline

import (
	"fmt"
	"sort"

	"prefmatch/internal/index"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// maxCells caps the cells of a dominance set. The root starts with this
// budget and splits it among its children, and they among theirs, until
// each subtree has one cell (childCell): a node with fewer children than
// its budget gives each a share to split further, and a node with more
// spreads them evenly over its budget, so a wide node does not pay a
// corner test per child on every dominance test. 16 was chosen by
// measurement: an SB wave of 500 functions over 20k anti-correlated 2-d
// objects, whose root has 100 children, took about 22 ms with one cell per
// child and 10 ms with 16 cells (2-vCPU x86 VM).
const maxCells = 16

// domSet is a columnar dominance index over a set of skyline objects,
// partitioned into cells: every member belongs to the cell of the subtree
// it came from. Each cell keeps its members' points in one
// dim-strided slab, in descending order of coordinate sum, with the sums
// and owning objects alongside, plus the running max corner of its
// members. "Which member dominates p?" probes p's own cell first, then the
// others: a cell whose max corner is ≥ p in every coordinate gets a flat
// scan that stops at the first member whose sum is below p's, and any other
// cell is skipped.
//
// Both shortcuts are exact. A cell whose max corner is below p in some
// coordinate holds no member ≥ p there, so no dominator. A dominator is
// ≥ p in every coordinate, and floating-point addition in a fixed order is
// monotone under round-to-nearest, so the dominator's computed sum
// (Point.Sum, ascending coordinate order) is never smaller than p's.
// Members with an equal sum are still scanned: a point can strictly
// dominate another and round to the same sum.
//
// The zero value is an empty set; the first Insert fixes the
// dimensionality.
type domSet struct {
	dim   int
	n     int // members over all cells
	cells []domCell
}

// domCell is one cell's members.
type domCell struct {
	pts  []float64 // row i is objs[i].Point
	sums []float64 // descending; equal sums keep insertion order
	objs []*Object
	hi   []float64 // coordinate-wise max of the rows; stale while empty
}

// Reset empties the set, keeping its storage.
func (s *domSet) Reset() {
	for i := range s.cells {
		cl := &s.cells[i]
		clear(cl.objs)
		cl.pts, cl.sums, cl.objs = cl.pts[:0], cl.sums[:0], cl.objs[:0]
	}
	s.n = 0
}

// Insert adds o to its cell at its sum rank (a binary search), after every
// member with an equal sum. o.Sum must be o.Point.Sum(), or the early exit
// is unsound.
func (s *domSet) Insert(o *Object) {
	if s.n == 0 {
		s.dim = len(o.Point)
	} else if len(o.Point) != s.dim {
		panic(fmt.Sprintf("skyline: inserting a dim %d point into a dim %d dominance set", len(o.Point), s.dim))
	}
	for len(s.cells) <= int(o.cell) {
		s.cells = append(s.cells, domCell{})
	}
	cl := &s.cells[o.cell]
	if len(cl.objs) == 0 {
		cl.hi = append(cl.hi[:0], o.Point...)
	} else {
		for j, v := range o.Point {
			cl.hi[j] = max(cl.hi[j], v)
		}
	}
	i := sort.Search(len(cl.sums), func(i int) bool { return cl.sums[i] < o.Sum })
	cl.sums = append(cl.sums, 0)
	copy(cl.sums[i+1:], cl.sums[i:])
	cl.sums[i] = o.Sum
	cl.objs = append(cl.objs, nil)
	copy(cl.objs[i+1:], cl.objs[i:])
	cl.objs[i] = o
	d := s.dim
	cl.pts = append(cl.pts, o.Point...)
	copy(cl.pts[(i+1)*d:], cl.pts[i*d:])
	copy(cl.pts[i*d:(i+1)*d], o.Point)
	s.n++
}

// Drop removes every member whose ID is in gone, filtering each cell's
// columns in place: the survivors keep their relative (sum) order, so
// nothing is re-sorted. A cell that lost a member recomputes its max
// corner from the survivors.
func (s *domSet) Drop(gone map[index.ObjID]bool) {
	d := s.dim
	for ci := range s.cells {
		cl := &s.cells[ci]
		n := 0
		for i, o := range cl.objs {
			if gone[o.ID] {
				continue
			}
			if n != i {
				cl.objs[n] = o
				cl.sums[n] = cl.sums[i]
				copy(cl.pts[n*d:(n+1)*d], cl.pts[i*d:(i+1)*d])
			}
			n++
		}
		if n == len(cl.objs) {
			continue
		}
		s.n -= len(cl.objs) - n
		clear(cl.objs[n:])
		cl.objs, cl.sums, cl.pts = cl.objs[:n], cl.sums[:n], cl.pts[:n*d]
		if n > 0 {
			copy(cl.hi, cl.pts[:d])
			for r := d; r < len(cl.pts); r += d {
				for j, v := range cl.pts[r : r+d] {
					cl.hi[j] = max(cl.hi[j], v)
				}
			}
		}
	}
}

// Dominator returns a member dominating p, or nil. cell is p's own cell,
// which is probed first (a cell the set does not have is skipped), then
// every other cell in cell order, until one yields a dominator. Each probe
// of a non-empty cell charges one dominance check to c for its corner test
// and one per member tested. The result is the largest-sum dominator (the
// earliest inserted on ties) of the first cell holding one.
func (s *domSet) Dominator(p vec.Point, cell int8, c *stats.Counters) *Object {
	if s.n == 0 {
		return nil
	}
	d := s.dim
	if len(p) != d {
		panic(fmt.Sprintf("skyline: dominance between dim %d and dim %d", d, len(p)))
	}
	ps := p.Sum()
	own := int(cell)
	var found *Object
	checks := 0
	if own >= 0 && own < len(s.cells) {
		found, checks = s.cells[own].probe(p, ps, d)
	}
	for i := 0; found == nil && i < len(s.cells); i++ {
		if i != own {
			var n int
			found, n = s.cells[i].probe(p, ps, d)
			checks += n
		}
	}
	c.DominanceChecks += int64(checks)
	return found
}

// probe returns the cell's largest-sum member dominating p (whose sum is
// ps), or nil, and how many checks it made: none for an empty cell, else
// the corner test plus every member tested. A cell whose max corner does
// not cover p is not scanned.
func (cl *domCell) probe(p vec.Point, ps float64, d int) (*Object, int) {
	if len(cl.sums) == 0 {
		return nil, 0
	}
	if !covers(cl.hi, p) {
		return nil, 1
	}
	for i, sum := range cl.sums {
		if sum < ps {
			return nil, 1 + i
		}
		if dominates(cl.pts[i*d:i*d+d:i*d+d], p) {
			return cl.objs[i], 2 + i
		}
	}
	return nil, 1 + len(cl.sums)
}

// covers reports whether hi ≥ p in every coordinate. len(p) must equal
// len(hi).
func covers(hi []float64, p vec.Point) bool {
	p = p[:len(hi)]
	for j, v := range hi {
		if v < p[j] {
			return false
		}
	}
	return true
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
