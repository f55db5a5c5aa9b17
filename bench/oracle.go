package main

import (
	"math"

	"prefmatch"
)

// oracleTopK is the benchmark's correctness reference: the k best objects for
// raw weights w by brute force, sharing no code with the R-tree stack. It
// normalises the weights as the engine defines a query (each divided by
// their sum), scores every object, and keeps the k best in the engine's
// total order: higher score, then larger coordinate sum, then smaller ID.
func oracleTopK(objs []prefmatch.Object, w []float64, k int) []prefmatch.Assignment {
	total := 0.0
	for _, x := range w {
		total += x
	}
	nw := make([]float64, len(w))
	for i, x := range w {
		nw[i] = x / total
	}
	type cand struct{ score, sum float64 }
	best := make([]prefmatch.Assignment, 0, k+1)
	keys := make([]cand, 0, k+1)
	for _, o := range objs {
		var c cand
		for i, v := range o.Values {
			c.score += nw[i] * v
			c.sum += v
		}
		// Insertion into the sorted best-k: walk left past every kept entry
		// the candidate beats.
		j := len(best)
		for j > 0 {
			b := keys[j-1]
			if c.score < b.score || c.score == b.score && (c.sum < b.sum || c.sum == b.sum && o.ID > best[j-1].ObjectID) {
				break
			}
			j--
		}
		if j >= k {
			continue
		}
		best = append(best[:j], append([]prefmatch.Assignment{{ObjectID: o.ID, Score: c.score}}, best[j:]...)...)
		keys = append(keys[:j], append([]cand{c}, keys[j:]...)...)
		if len(best) > k {
			best, keys = best[:k], keys[:k]
		}
	}
	return best
}

// sameAnswer reports whether got is want: the same objects in the same
// order, with scores equal up to float rounding (a platform that fuses
// multiply-adds may differ from the oracle in the last bits).
func sameAnswer(got, want []prefmatch.Assignment) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ObjectID != want[i].ObjectID {
			return false
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-12*math.Max(1, math.Abs(want[i].Score)) {
			return false
		}
	}
	return true
}
