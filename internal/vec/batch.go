// Blocked multi-function scoring kernels: score a Q×D weight matrix against a
// backend's contiguous point / MBR slabs in one call. These are the inner
// loops of the batched shared-traversal searcher (internal/topk.BatchSearcher)
// — one node visit scores every still-active preference function, so the
// per-node work becomes a small dense matrix product instead of Q separate
// strided walks.
//
// Every kernel accumulates each (function, entry) pair in ascending
// coordinate order, exactly like Dot / DotSum / prefs.Function.Score, so the
// per-function results are bit-identical to the unbatched path (pinned by
// TestDotBatchMatchesDot and the topk equivalence suite).
//
// DotBatch has one unrolled case, d = 4, the dimensionality of every
// workload in the canonical benchmark. It hoists the four weights into
// locals and re-slices each point once, so the compiler drops the inner loop
// and its bounds checks; the sum is still s := 0.0 followed by one
// s += w[j]*x[j] per coordinate in ascending j. Those are the generic loop's float operations, in its order,
// for every (function, point) pair, so every score and bound is bit for bit
// what Dot returns, −0.0 included: the leading 0.0 + turns an all −0.0 sum
// into +0.0 on both paths. Every other d runs the generic loop.
package vec

// DotBatch scores q weight rows against n = len(xs)/d dim-strided points:
// out[f*n+i] = Dot(ws[f*d:(f+1)*d], xs[i*d:(i+1)*d]). ws holds the q rows
// back to back (each of length d) and out must have room for q*n results.
// Row f of the output is the same sequence of floats the unbatched path
// produces by calling Dot per point.
func DotBatch(ws []float64, q, d int, xs []float64, out []float64) {
	n := len(xs) / d
	_ = out[:q*n]
	if d == 4 {
		dotBatch4(ws, q, xs, out, n)
		return
	}
	for f := 0; f < q; f++ {
		w := ws[f*d : f*d+d : f*d+d]
		o := out[f*n : f*n+n : f*n+n]
		for i := 0; i < n; i++ {
			x := xs[i*d : i*d+d : i*d+d]
			s := 0.0
			for j, wj := range w {
				s += wj * x[j]
			}
			o[i] = s
		}
	}
}

// dotBatch4 is DotBatch at d = 4 (see the file comment).
func dotBatch4(ws []float64, q int, xs []float64, out []float64, n int) {
	for f := 0; f < q; f++ {
		w := ws[f*4 : f*4+4 : f*4+4]
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		o := out[f*n : f*n+n : f*n+n]
		for i := range o {
			x := xs[i*4 : i*4+4 : i*4+4]
			s := 0.0
			s += w0 * x[0]
			s += w1 * x[1]
			s += w2 * x[2]
			s += w3 * x[3]
			o[i] = s
		}
	}
}

// DotSumBatch is DotBatch plus the per-point coordinate sums: sums[i] gets
// Point.Sum of point i, the dominance-consistent tie-breaker. sums must have
// room for n values.
//
// No engine path calls it: the batch searcher's leaf loop runs DotBatch and
// sums only the objects that survive its heap reject. It is kept for the
// canonical benchmark, which times it as vec.dotsumbatch_ns_per_elem; delete
// it when that row is replaced by the kernel the walk runs.
func DotSumBatch(ws []float64, q, d int, xs []float64, out, sums []float64) {
	n := len(xs) / d
	_ = sums[:n]
	for i := 0; i < n; i++ {
		x := xs[i*d : i*d+d : i*d+d]
		s := 0.0
		for _, v := range x {
			s += v
		}
		sums[i] = s
	}
	DotBatch(ws, q, d, xs, out)
}

// MBRBoundsBatch computes, for each of q linear functions and each of the
// n = len(hi)/d dim-strided MBRs whose top corners are stored in hi, the
// function's upper bound over the MBR: out[f*n+i] = Dot(row f, hi corner i).
// Under the maximisation convention a monotone preference attains its
// supremum over a rectangle at the Hi corner, so bounding is the same kernel
// as scoring — kept as a named entry point so call sites read as bounding.
func MBRBoundsBatch(ws []float64, q, d int, hi []float64, out []float64) {
	DotBatch(ws, q, d, hi, out)
}
