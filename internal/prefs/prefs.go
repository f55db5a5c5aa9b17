// Package prefs defines preference functions over multidimensional objects
// and the deterministic preference orders used throughout the matching
// algorithms.
//
// The paper's model (§ II): every function f maps an object o to a score
// f(o); F may contain any monotone function, but the presentation (and the
// experiments) focus on linear functions f(o) = Σ f.αᵢ·oᵢ with non-negative
// weights normalised to sum to 1, "so that no function is favored over
// another".
//
// # Deterministic tie-breaking
//
// With real data (many tied attribute values) the pair with the highest
// score is not unique, so "remove the best pair" underdetermines the
// matching. This package fixes a total order under which the greedy matching
// is unique and — crucially — skyline-restricted search stays correct:
//
//   - an object prefers function f over f' if f(o) > f'(o), or the scores tie
//     and f has the smaller ID;
//   - a function prefers object o over o' if f(o) > f(o'), or the scores tie
//     and o has the larger coordinate sum, or both tie and o has the smaller
//     ID.
//
// The coordinate-sum term makes the order dominance-consistent: if o'
// dominates o then every function weakly prefers o' by score and strictly
// prefers it by sum, so the best partner of any function is always on the
// skyline even when zero weights produce score ties across dominance.
package prefs

import (
	"errors"
	"fmt"
	"math"

	"prefmatch/internal/vec"
)

// Preference scores objects and can bound its own score over a rectangle.
// Implementations must be monotone: if p weakly dominates q then
// Score(p) >= Score(q). UpperBound(r) must satisfy
// UpperBound(r) >= Score(p) for every point p inside r; for monotone
// preferences Score(r.Hi) is always such a bound.
type Preference interface {
	Score(p vec.Point) float64
	UpperBound(r vec.Rect) float64
}

// Function is a linear preference function: Score(o) = Σ Weights[i]·o[i].
// Weights are non-negative and sum to 1 (see NewFunction). Function is the
// concrete type used by all three matchers; the TA-based BestPair module
// requires linearity.
type Function struct {
	ID      int
	Weights vec.Point
}

var (
	// ErrNoWeights is returned for an empty weight vector.
	ErrNoWeights = errors.New("prefs: empty weight vector")
	// ErrNegativeWeight is returned when any weight is negative.
	ErrNegativeWeight = errors.New("prefs: negative weight")
	// ErrZeroWeights is returned when all weights are zero (cannot normalise).
	ErrZeroWeights = errors.New("prefs: all weights zero")
	// ErrBadWeight is returned for NaN or infinite weights.
	ErrBadWeight = errors.New("prefs: NaN or infinite weight")
)

// NewFunction builds a linear preference function from raw non-negative
// weights, normalising them to sum to exactly 1 (within float rounding).
func NewFunction(id int, weights []float64) (Function, error) {
	f, _, err := AppendFunction(make(vec.Point, 0, len(weights)), id, weights)
	return f, err
}

// OverflowScale rescales weights whose sum overflows float64. Multiplying
// by a power of two is exact, so the normalised weights are bit-identical
// to those of the same preference written at a smaller scale; and with
// every weight below 2^1024, the rescaled sum of any slice that fits in
// memory is finite.
const OverflowScale = 0x1p-64

// AppendFunction is the allocation-free form of NewFunction: the normalised
// weights are appended to arena and the returned function's Weights alias the
// appended region, so a serving path validating many queries per request can
// reuse one grown arena instead of allocating a weight vector per query. The
// extended arena is returned; on error the arena is returned unchanged.
// Callers must not let the arena be reused while a returned Function is live.
func AppendFunction(arena vec.Point, id int, weights []float64) (Function, vec.Point, error) {
	if len(weights) == 0 {
		return Function{}, arena, ErrNoWeights
	}
	sum := 0.0
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return Function{}, arena, fmt.Errorf("%w: %v", ErrBadWeight, w)
		}
		if w < 0 {
			return Function{}, arena, fmt.Errorf("%w: %v", ErrNegativeWeight, w)
		}
		sum += w
	}
	if sum == 0 {
		return Function{}, arena, ErrZeroWeights
	}
	scale := 1.0
	if math.IsInf(sum, 1) {
		// Finite weights whose sum overflows: w/+Inf would zero them all.
		scale, sum = OverflowScale, 0
		for _, w := range weights {
			sum += w * scale
		}
	}
	base := len(arena)
	for _, w := range weights {
		// w*1 is w exactly, so a finite sum keeps its bits.
		arena = append(arena, w*scale/sum)
	}
	return Function{ID: id, Weights: arena[base:len(arena):len(arena)]}, arena, nil
}

// MustFunction is NewFunction that panics on error, for tests and examples.
func MustFunction(id int, weights []float64) Function {
	f, err := NewFunction(id, weights)
	if err != nil {
		panic(err)
	}
	return f
}

// Dim returns the dimensionality of the function.
func (f Function) Dim() int { return len(f.Weights) }

// Score returns Σ Weights[i]·p[i], Equation (1) of the paper.
func (f Function) Score(p vec.Point) float64 {
	s := 0.0
	for i, w := range f.Weights {
		s += w * p[i]
	}
	return s
}

// UpperBound returns the maximum score any point inside r can achieve.
// Because weights are non-negative, the maximum is attained at r.Hi.
func (f Function) UpperBound(r vec.Rect) float64 {
	return f.Score(r.Hi)
}

// String renders the function as "f<id>(w0, w1, ...)".
func (f Function) String() string {
	return fmt.Sprintf("f%d%s", f.ID, f.Weights)
}

var _ Preference = Function{}

// Linear reports whether p is the concrete linear Function type, returning
// it unboxed. Hot paths use it to devirtualize scoring: a linear preference
// can be evaluated as a tight dot-product loop over a backend's flat
// coordinate slab (vec.Dot / vec.DotSum) instead of an interface call per
// entry, with bit-identical results. Both boxing forms are recognised:
// Function by value, and *Function — the form allocation-free callers use,
// because boxing the multi-word struct value heap-allocates while a pointer
// rides in the interface word for free.
func Linear(p Preference) (Function, bool) {
	switch f := p.(type) {
	case Function:
		return f, true
	case *Function:
		return *f, true
	}
	return Function{}, false
}

// BetterFunc reports whether function (scoreA, idA) is preferred by an
// object over function (scoreB, idB): higher score first, then smaller
// function ID.
func BetterFunc(scoreA float64, idA int, scoreB float64, idB int) bool {
	if scoreA != scoreB {
		return scoreA > scoreB
	}
	return idA < idB
}

// BetterObj reports whether object (scoreA, sumA, idA) is preferred by a
// function over object (scoreB, sumB, idB): higher score first, then larger
// coordinate sum (the dominance-consistent tie-break), then smaller object
// ID.
func BetterObj(scoreA, sumA float64, idA int, scoreB, sumB float64, idB int) bool {
	if scoreA != scoreB {
		return scoreA > scoreB
	}
	if sumA != sumB {
		return sumA > sumB
	}
	return idA < idB
}

// PairKey identifies a candidate (function, object) pair together with
// everything its global priority depends on.
type PairKey struct {
	Score  float64
	ObjSum float64
	FuncID int
	ObjID  int
}

// Better reports whether pair a precedes pair b in the global greedy order:
// higher score, then larger object coordinate sum, then smaller function ID,
// then smaller object ID. Restricted to pairs sharing a function it agrees
// with BetterObj; restricted to pairs sharing an object it agrees with
// BetterFunc; these consistency facts are what makes the greedy matching a
// stable matching under the per-side orders (and are property-tested).
func (a PairKey) Better(b PairKey) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.ObjSum != b.ObjSum {
		return a.ObjSum > b.ObjSum
	}
	if a.FuncID != b.FuncID {
		return a.FuncID < b.FuncID
	}
	return a.ObjID < b.ObjID
}
