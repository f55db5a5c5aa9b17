// Package vec provides the geometric primitives shared by the R-tree, the
// skyline computation, and the ranked-search modules: D-dimensional points,
// axis-aligned rectangles (MBRs), dominance tests, and distances to the best
// corner of the data space.
//
// The whole repository uses a maximisation convention: every coordinate is a
// "goodness" value in [0, 1] and larger is better. The best corner of the
// space is therefore the all-ones point.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// Point is a D-dimensional feature vector. Coordinates are goodness values,
// normally (but not necessarily) in [0, 1]; larger is better in every
// dimension.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical length and coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Sum returns the coordinate sum of p. It is used as a dominance-consistent
// tie-breaker: if p dominates q then Sum(p) > Sum(q).
func (p Point) Sum() float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// Dominates reports whether p dominates q: p is at least as good as q in
// every dimension and strictly better in at least one. Points must have the
// same dimensionality; Dominates panics otherwise, because mixing
// dimensionalities is always a programming error in this codebase.
func (p Point) Dominates(q Point) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dominance between dim %d and dim %d", len(p), len(q)))
	}
	strict := false
	for i := range p {
		if p[i] < q[i] {
			return false
		}
		if p[i] > q[i] {
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports whether p is at least as good as q in every
// dimension (ties everywhere allowed).
func (p Point) WeaklyDominates(q Point) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dominance between dim %d and dim %d", len(p), len(q)))
	}
	for i := range p {
		if p[i] < q[i] {
			return false
		}
	}
	return true
}

// BestCornerDist returns the L1 distance from p to the best corner of the
// unit data space (the all-ones point): Σ (1 − pᵢ). It is the BBS heap key:
// if p dominates q then BestCornerDist(p) < BestCornerDist(q).
func (p Point) BestCornerDist() float64 {
	d := 0.0
	for _, v := range p {
		d += 1 - v
	}
	return d
}

// Dot returns Σ w[i]·x[i] over the first len(w) coordinates of x,
// accumulated in ascending index order — bit-identical to scoring the same
// coordinates through prefs.Function.Score. x is typically a dim-strided
// window of a backend's flat point slab (see index.FlatLeaf), re-sliced up
// front so the loop body carries no bounds checks.
func Dot(w Point, x []float64) float64 {
	x = x[:len(w)]
	s := 0.0
	for i, wi := range w {
		s += wi * x[i]
	}
	return s
}

// DotSum returns Dot(w, x) and the coordinate sum of the same window in one
// pass. Both accumulate in ascending index order, so dot is bit-identical to
// Dot and sum to Point.Sum over the same coordinates.
func DotSum(w Point, x []float64) (dot, sum float64) {
	x = x[:len(w)]
	for i, wi := range w {
		v := x[i]
		dot += wi * v
		sum += v
	}
	return dot, sum
}

// String renders p as "(v0, v1, ...)" with compact float formatting.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is an axis-aligned D-dimensional rectangle, the minimum bounding
// rectangle (MBR) of a set of points. Lo holds the per-dimension minima and
// Hi the maxima; Lo[i] <= Hi[i] for every i in a valid Rect.
type Rect struct {
	Lo, Hi Point
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Equal reports whether r and s cover exactly the same region.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// Valid reports whether r is well formed: equal-length corners with
// Lo[i] <= Hi[i] everywhere and no NaNs.
func (r Rect) Valid() bool {
	if len(r.Lo) != len(r.Hi) || len(r.Lo) == 0 {
		return false
	}
	for i := range r.Lo {
		if math.IsNaN(r.Lo[i]) || math.IsNaN(r.Hi[i]) || r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if s.Hi[i] < r.Lo[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ExpandPoint grows r in place so that it contains p.
func (r *Rect) ExpandPoint(p Point) {
	for i := range r.Lo {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// ExpandRect grows r in place so that it contains s.
func (r *Rect) ExpandRect(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.ExpandRect(s)
	return u
}

// Area returns the D-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of r's edge lengths (the R*-tree "margin").
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// EnlargementPoint returns the area increase required for r to absorb p.
func (r Rect) EnlargementPoint(p Point) float64 {
	grown := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if p[i] < lo {
			lo = p[i]
		}
		if p[i] > hi {
			hi = p[i]
		}
		grown *= hi - lo
	}
	return grown - r.Area()
}

// EnlargementRect returns the area increase required for r to absorb s.
func (r Rect) EnlargementRect(s Rect) float64 {
	grown := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if s.Lo[i] < lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] > hi {
			hi = s.Hi[i]
		}
		grown *= hi - lo
	}
	return grown - r.Area()
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// BestCornerDist returns the L1 distance from the point of r closest to the
// best corner (which is r.Hi, under maximisation) to the best corner itself.
// It lower-bounds BestCornerDist of every point inside r, which makes it the
// BBS heap key for intermediate entries.
func (r Rect) BestCornerDist() float64 {
	return r.Hi.BestCornerDist()
}

// DominatedBy reports whether the whole rectangle is dominated by p, i.e.
// whether p dominates r.Hi, the best possible point inside r. A pruned
// rectangle can contain no skyline point.
func (r Rect) DominatedBy(p Point) bool {
	return p.Dominates(r.Hi)
}

// String renders r as "[lo ; hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s ; %s]", r.Lo, r.Hi)
}

// MBROfPoints returns the minimum bounding rectangle of the given points.
// It panics if pts is empty.
func MBROfPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("vec: MBR of empty point set")
	}
	r := RectFromPoint(pts[0])
	for _, p := range pts[1:] {
		r.ExpandPoint(p)
	}
	return r
}

// MBROfFlatPoints returns the minimum bounding rectangle of the n = len(coords)/d
// dim-strided points stored in coords (point i occupies coords[i*d:(i+1)*d]).
// It panics if coords is empty. The returned corners are freshly allocated.
func MBROfFlatPoints(coords []float64, d int) Rect {
	if len(coords) == 0 || d < 1 {
		panic("vec: MBR of empty flat point set")
	}
	r := Rect{Lo: make(Point, d), Hi: make(Point, d)}
	FlatPointsMBR(r.Lo, r.Hi, coords)
	return r
}

// FlatPointsMBR writes the minimum bounding rectangle of the dim-strided
// points in coords into lo and hi, whose common length is the dimension.
// coords must hold at least one point.
func FlatPointsMBR(lo, hi, coords []float64) {
	d := len(lo)
	copy(lo, coords[:d])
	copy(hi, coords[:d])
	for off := d; off < len(coords); off += d {
		for i := 0; i < d; i++ {
			v := coords[off+i]
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
}

// MBROfFlatRects returns the minimum bounding rectangle of the dim-strided
// rectangles stored columnar in lo and hi (rect i's corners occupy
// lo[i*d:(i+1)*d] and hi[i*d:(i+1)*d]). It panics if the slabs are empty.
// The returned corners are freshly allocated.
func MBROfFlatRects(lo, hi []float64, d int) Rect {
	if len(lo) == 0 || d < 1 {
		panic("vec: MBR of empty flat rect set")
	}
	r := Rect{Lo: make(Point, d), Hi: make(Point, d)}
	FlatRectsMBR(r.Lo, r.Hi, lo, hi)
	return r
}

// FlatRectsMBR writes the minimum bounding rectangle of the dim-strided
// rectangles in lo and hi into outLo and outHi, whose common length is the
// dimension. The slabs must hold at least one rectangle.
func FlatRectsMBR(outLo, outHi, lo, hi []float64) {
	d := len(outLo)
	copy(outLo, lo[:d])
	copy(outHi, hi[:d])
	for off := d; off < len(lo); off += d {
		for i := 0; i < d; i++ {
			if v := lo[off+i]; v < outLo[i] {
				outLo[i] = v
			}
			if v := hi[off+i]; v > outHi[i] {
				outHi[i] = v
			}
		}
	}
}

// MBROfRects returns the minimum bounding rectangle of the given rectangles.
// It panics if rects is empty.
func MBROfRects(rects []Rect) Rect {
	if len(rects) == 0 {
		panic("vec: MBR of empty rect set")
	}
	r := rects[0].Clone()
	for _, s := range rects[1:] {
		r.ExpandRect(s)
	}
	return r
}
