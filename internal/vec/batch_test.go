package vec

import (
	"math"
	"math/rand"
	"testing"
)

// coarse weights and coordinates (small integer multiples of 0.25) provoke
// exact float ties, so any reassociation of the accumulation order in the
// batch kernels would show up as a bit-level mismatch against Dot/DotSum.
func coarseSlab(rng *rand.Rand, n, d int) []float64 {
	s := make([]float64, n*d)
	for i := range s {
		s[i] = float64(rng.Intn(5)) * 0.25
	}
	return s
}

// edgeValues are inputs on which a kernel that drops, reorders or fuses an
// operation changes a bit: −0.0 (0.0 + −0.0 is +0.0, but −0.0 + −0.0 is
// −0.0), subnormals, and magnitudes near 1e150, whose products near 1e300
// cancel or absorb the small terms depending on the order of the adds.
var edgeValues = []float64{0, 0.25, 1, math.Copysign(0, -1), 5e-324, 2.5e-310, 1e150, 3e149, -1e150}

// edgeSlab draws from edgeValues, and makes row 0 all −0.0, so that row 0
// against any positive row is a sum of −0.0 products, which Dot returns as
// +0.0.
func edgeSlab(rng *rand.Rand, n, d int) []float64 {
	s := make([]float64, n*d)
	for i := range s {
		s[i] = edgeValues[rng.Intn(len(edgeValues))]
	}
	for j := 0; j < d; j++ {
		s[j] = math.Copysign(0, -1)
	}
	return s
}

var slabs = []struct {
	name string
	make func(rng *rand.Rand, n, d int) []float64
}{{"coarse", coarseSlab}, {"edge", edgeSlab}}

// sameBits compares floats bit for bit, so −0.0 and +0.0 differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestDotBatchMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, slab := range slabs {
		for _, d := range []int{1, 2, 3, 4, 5, 7, 8} {
			for _, q := range []int{1, 3, 16} {
				for _, n := range []int{1, 5, 33} {
					ws := slab.make(rng, q, d)
					xs := slab.make(rng, n, d)
					out := make([]float64, q*n)
					DotBatch(ws, q, d, xs, out)
					for f := 0; f < q; f++ {
						w := Point(ws[f*d : (f+1)*d])
						for i := 0; i < n; i++ {
							want := Dot(w, xs[i*d:(i+1)*d])
							if got := out[f*n+i]; !sameBits(got, want) {
								t.Fatalf("%s d=%d q=%d n=%d: out[%d,%d] = %v, Dot = %v", slab.name, d, q, n, f, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestDotSumBatchMatchesDotSum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const q, n = 7, 29
	for _, slab := range slabs {
		for _, d := range []int{3, 4} {
			ws := slab.make(rng, q, d)
			xs := slab.make(rng, n, d)
			out := make([]float64, q*n)
			sums := make([]float64, n)
			DotSumBatch(ws, q, d, xs, out, sums)
			for i := 0; i < n; i++ {
				x := xs[i*d : (i+1)*d]
				if want := Point(x).Sum(); !sameBits(sums[i], want) {
					t.Fatalf("%s d=%d: sums[%d] = %v, Point.Sum = %v", slab.name, d, i, sums[i], want)
				}
				for f := 0; f < q; f++ {
					dot, _ := DotSum(Point(ws[f*d:(f+1)*d]), x)
					if !sameBits(out[f*n+i], dot) {
						t.Fatalf("%s d=%d: out[%d,%d] = %v, DotSum dot = %v", slab.name, d, f, i, out[f*n+i], dot)
					}
				}
			}
		}
	}
}

func TestMBRBoundsBatchMatchesDotOnHiCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const q, n = 5, 17
	for _, slab := range slabs {
		for _, d := range []int{3, 4} {
			ws := slab.make(rng, q, d)
			hi := slab.make(rng, n, d)
			out := make([]float64, q*n)
			MBRBoundsBatch(ws, q, d, hi, out)
			for f := 0; f < q; f++ {
				for i := 0; i < n; i++ {
					if want := Dot(Point(ws[f*d:(f+1)*d]), hi[i*d:(i+1)*d]); !sameBits(out[f*n+i], want) {
						t.Fatalf("%s d=%d: bound[%d,%d] = %v, Dot(hi) = %v", slab.name, d, f, i, out[f*n+i], want)
					}
				}
			}
		}
	}
}

func TestBatchKernelsZeroAlloc(t *testing.T) {
	const d, q, n = 4, 8, 32
	rng := rand.New(rand.NewSource(44))
	ws := coarseSlab(rng, q, d)
	xs := coarseSlab(rng, n, d)
	out := make([]float64, q*n)
	sums := make([]float64, n)
	if a := testing.AllocsPerRun(100, func() {
		DotSumBatch(ws, q, d, xs, out, sums)
		MBRBoundsBatch(ws, q, d, xs, out)
	}); a != 0 {
		t.Fatalf("batch kernels allocate %v per run", a)
	}
}
