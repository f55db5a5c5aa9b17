// Package verify provides correctness harnesses for the matching algorithms:
// a progressive stability checker implementing Property 1 of the paper, and
// an exhaustive greedy oracle that computes the unique reference matching by
// full scans.
package verify

import (
	"fmt"
	"math"

	"prefmatch/internal/core"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
)

// GreedyOracle computes the stable matching by the definition in § II:
// repeatedly report the pair with the highest score (under the
// deterministic global order) among the remaining functions and objects,
// removing both, until either set is exhausted. O(|F|·|O|) per pair —
// reference use only.
func GreedyOracle(objs []index.Item, fns []prefs.Function) []core.Pair {
	aliveO := make([]bool, len(objs))
	for i := range aliveO {
		aliveO[i] = true
	}
	aliveF := make([]bool, len(fns))
	for i := range aliveF {
		aliveF[i] = true
	}
	n := min(len(objs), len(fns))
	out := make([]core.Pair, 0, n)
	for len(out) < n {
		bestF, bestO := -1, -1
		var bestKey prefs.PairKey
		for fi := range fns {
			if !aliveF[fi] {
				continue
			}
			for oi := range objs {
				if !aliveO[oi] {
					continue
				}
				key := prefs.PairKey{
					Score:  fns[fi].Score(objs[oi].Point),
					ObjSum: objs[oi].Point.Sum(),
					FuncID: fns[fi].ID,
					ObjID:  int(objs[oi].ID),
				}
				if bestF == -1 || key.Better(bestKey) {
					bestF, bestO, bestKey = fi, oi, key
				}
			}
		}
		aliveF[bestF] = false
		aliveO[bestO] = false
		out = append(out, core.Pair{FuncID: fns[bestF].ID, ObjID: objs[bestO].ID, Score: bestKey.Score})
	}
	return out
}

// CheckProgressive verifies that the emitted pair sequence satisfies
// Property 1 at every step: when pair (f, o) is reported, no unassigned
// function strictly prefers o over f (object-side order) and no unassigned
// object is strictly preferred by f over o (function-side order). It also
// checks structural sanity: no double assignment, known IDs, correct scores,
// and the complete cardinality min(|F|, |O|).
func CheckProgressive(objs []index.Item, fns []prefs.Function, pairs []core.Pair) error {
	return CheckProgressiveCapacitated(objs, fns, nil, pairs)
}

// CheckProgressiveCapacitated is CheckProgressive for capacitated objects:
// an object may appear in as many pairs as its capacity (missing map entry
// = 1) and stays available — hence a potential spoiler for later pairs —
// until its capacity is spent. The expected cardinality is
// min(Σ capacities, |F|).
func CheckProgressiveCapacitated(objs []index.Item, fns []prefs.Function, caps map[index.ObjID]int, pairs []core.Pair) error {
	objByID := make(map[index.ObjID]index.Item, len(objs))
	totalCap := 0
	resid := make(map[index.ObjID]int, len(objs))
	for _, o := range objs {
		objByID[o.ID] = o
		c, ok := caps[o.ID]
		if !ok {
			c = 1
		}
		if c < 1 {
			return fmt.Errorf("verify: object %d has capacity %d", o.ID, c)
		}
		resid[o.ID] = c
		totalCap += c
	}
	fnByID := make(map[int]prefs.Function, len(fns))
	for _, f := range fns {
		fnByID[f.ID] = f
	}
	if want := min(totalCap, len(fns)); len(pairs) != want {
		return fmt.Errorf("verify: %d pairs emitted, want %d", len(pairs), want)
	}
	usedF := map[int]bool{}
	for _, p := range pairs {
		if usedF[p.FuncID] {
			return fmt.Errorf("verify: function %d assigned twice", p.FuncID)
		}
		usedF[p.FuncID] = true
		if _, ok := fnByID[p.FuncID]; !ok {
			return fmt.Errorf("verify: unknown function %d", p.FuncID)
		}
		if _, ok := objByID[p.ObjID]; !ok {
			return fmt.Errorf("verify: unknown object %d", p.ObjID)
		}
	}

	// Progressive stability (Property 1). Walk the emission order keeping
	// alive sets; pairs emitted in the same SB loop are checked against the
	// state at their own emission, which is conservative (stability w.r.t.
	// a superset implies stability w.r.t. the subset).
	aliveF := make(map[int]bool, len(fns))
	for _, f := range fns {
		aliveF[f.ID] = true
	}
	for idx, p := range pairs {
		f := fnByID[p.FuncID]
		o := objByID[p.ObjID]
		if resid[o.ID] == 0 {
			return fmt.Errorf("verify: pair %d assigns object %d beyond its capacity", idx, o.ID)
		}
		score := f.Score(o.Point)
		// Accept only a difference known to be small: every comparison
		// with a NaN is false, so a NaN score must fail this test.
		if diff := math.Abs(score - p.Score); !(diff <= 1e-9) {
			return fmt.Errorf("verify: pair %d reports score %v, recomputed %v", idx, p.Score, score)
		}
		// No unassigned function strictly prefers o (object-side order).
		for _, f2 := range fns {
			if !aliveF[f2.ID] || f2.ID == f.ID {
				continue
			}
			if prefs.BetterFunc(f2.Score(o.Point), f2.ID, score, f.ID) {
				return fmt.Errorf("verify: pair %d (f%d,o%d) unstable: f%d scores o%d better (%v > %v)",
					idx, f.ID, o.ID, f2.ID, o.ID, f2.Score(o.Point), score)
			}
		}
		// No available object is strictly preferred by f.
		for _, o2 := range objs {
			if resid[o2.ID] == 0 || o2.ID == o.ID {
				continue
			}
			if prefs.BetterObj(f.Score(o2.Point), o2.Point.Sum(), int(o2.ID), score, o.Point.Sum(), int(o.ID)) {
				return fmt.Errorf("verify: pair %d (f%d,o%d) unstable: f%d prefers o%d (%v > %v)",
					idx, f.ID, o.ID, f.ID, o2.ID, f.Score(o2.Point), score)
			}
		}
		aliveF[f.ID] = false
		resid[o.ID]--
	}
	return nil
}

// SamePairSet reports whether two matchings assign identical pairs,
// regardless of emission order.
func SamePairSet(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]index.ObjID, len(a))
	for _, p := range a {
		m[p.FuncID] = p.ObjID
	}
	for _, p := range b {
		if got, ok := m[p.FuncID]; !ok || got != p.ObjID {
			return false
		}
	}
	return true
}
