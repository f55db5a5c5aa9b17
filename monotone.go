package prefmatch

import (
	"errors"
	"fmt"
	"math"

	"prefmatch/internal/core"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/vec"
)

// Preference is a user-supplied monotone scoring function over object
// attribute vectors: if p is at least as good as q in every attribute then
// Score(p) >= Score(q) must hold. Linear weighted sums, Cobb-Douglas
// products, weighted minima and any other monotone utility qualify.
// Monotonicity is what makes skyline-restricted matching exact; violating
// it silently produces a matching for a different (monotonised) problem.
type Preference interface {
	Score(values []float64) float64
}

// PreferenceQuery pairs a Preference with the user ID it belongs to.
type PreferenceQuery struct {
	ID         int
	Preference Preference
}

// Score makes Query satisfy Preference — the raw (un-normalised) weighted
// sum Σ Weights[i]·values[i], exactly like LinearPreference. Entry points
// that accept a Preference (Server.TopKPref, Server.OpenSession) recognise
// the concrete Query type and validate + normalise its weights first, so
// passing a Query to them is exactly equivalent to the Query-typed methods;
// only when a Query is used as an anonymous monotone function elsewhere does
// the raw sum apply.
func (q Query) Score(values []float64) float64 { return linearScore(q.Weights, values) }

// Score makes PreferenceQuery satisfy Preference by delegating to the
// wrapped function, so the two query types share one interface: Preference
// is satisfied by Query (linear) and PreferenceQuery (monotone) alike, and
// unified entry points (Server.TopKPref, Server.OpenSession) accept either —
// or any other monotone Preference. Panics when the wrapped Preference is
// nil, like any nil-interface call; the unified entry points reject nil
// before scoring.
func (q PreferenceQuery) Score(values []float64) float64 {
	return q.Preference.Score(values)
}

// prefAdapter bridges the public Preference to the internal interface. The
// upper bound over a rectangle is the score of its top corner, valid for
// every monotone preference.
type prefAdapter struct {
	p Preference
}

func (a prefAdapter) Score(p vec.Point) float64 { return a.p.Score(p) }

func (a prefAdapter) UpperBound(r vec.Rect) float64 { return a.p.Score(r.Hi) }

var _ prefs.Preference = prefAdapter{}

// MatchMonotone computes the stable matching between objects and arbitrary
// monotone preference queries. It generalises Match beyond linear weight
// vectors (the paper's § II model explicitly admits any monotone function)
// and runs the same matchers on the same index setup.
//
// Supported algorithms: SkylineBased (default), BruteForce and
// BruteForceIncremental. SB finds each object's best query by scanning the
// remaining queries instead of by TA over coefficient lists. Chain requires
// linear weight vectors to index and returns an error. Setting
// Options.DisableTightThreshold is also an error: the tight/naive TA
// threshold distinction only exists for linear functions, so rather than
// silently ignoring the ablation flag, MatchMonotone rejects it.
func MatchMonotone(objects []Object, queries []PreferenceQuery, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.DisableTightThreshold {
		return nil, errors.New("prefmatch: DisableTightThreshold is not supported by MatchMonotone: the generic engine scans the remaining queries and has no TA threshold to loosen")
	}
	if len(objects) == 0 {
		return nil, errNoObjects
	}
	if len(queries) == 0 {
		return nil, errNoQueries
	}
	d, items, capacities, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	gps := make([]core.GenericPreference, len(queries))
	seen := make(map[int]bool, len(queries))
	for i, q := range queries {
		if q.Preference == nil {
			return nil, fmt.Errorf("prefmatch: preference query %d is nil", q.ID)
		}
		if seen[q.ID] {
			return nil, fmt.Errorf("prefmatch: duplicate preference query ID %d", q.ID)
		}
		seen[q.ID] = true
		gps[i] = core.GenericPreference{ID: q.ID, Pref: prefAdapter{p: q.Preference}}
	}
	m, err := newMatcher(items, d, capacities, opts, func(tree index.ObjectIndex, copts *core.Options) (core.Matcher, error) {
		return core.NewGenericMatcher(tree, gps, copts)
	})
	if err != nil {
		return nil, err
	}
	return m.drain(min(len(objects), len(queries)))
}

// LinearPreference adapts a weight vector to the Preference interface, for
// mixing linear queries into MatchMonotone.
type LinearPreference struct {
	Weights []float64
}

// Score returns the weighted sum Σ Weights[i]·values[i]. Weights whose sum
// overflows float64 are scaled down first, see linearScore.
func (l LinearPreference) Score(values []float64) float64 { return linearScore(l.Weights, values) }

// linearScore is the raw weighted sum Σ weights[i]·values[i]. Weights whose
// sum overflows are first multiplied by prefs.OverflowScale, the power of
// two prefs.AppendFunction applies to such Query weights: without it every
// score of weights near math.MaxFloat64 would be +Inf and a ranking would
// fall to its tie-break. The scale depends on the weights alone, so one
// preference scores every object alike; below the overflow the sum keeps
// its bits.
func linearScore(weights, values []float64) float64 {
	s, sum := 0.0, 0.0
	for i, w := range weights {
		s += w * values[i]
		sum += w
	}
	if !math.IsInf(sum, 0) {
		return s
	}
	s = 0
	for i, w := range weights {
		s += w * prefs.OverflowScale * values[i]
	}
	return s
}
