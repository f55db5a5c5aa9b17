package topk

import (
	"math/rand"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// buildMemSnapshot bulk-loads n random points into the memory backend and
// returns a read-only snapshot — the serving-path configuration the
// zero-alloc guarantee is made for.
func buildMemSnapshot(t *testing.T, n, d int) index.ObjectIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	items := make([]index.Item, n)
	for i := range items {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	ix, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Snapshot()
}

// TestZeroAllocSteadyState pins the tentpole property of the serving path:
// after warm-up, pooled Top1 and buffer-reusing SearchAppend over a memory
// snapshot perform zero allocations per query. The flat columnar arena
// (points and rects are slab windows, not fresh slices), the pooled batch
// searcher (retained frontier and heap backing arrays) and the
// devirtualized linear kernels each contribute; a regression in any of them
// shows up here as allocs/op > 0.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		d = 4
		k = 10
	)
	snap := buildMemSnapshot(t, 5000, d)
	c := &stats.Counters{}
	// Pre-boxed preference: the Function-to-Preference conversion is the
	// caller's one-time cost, not a per-query one.
	pref := prefs.Preference(prefs.MustFunction(0, []float64{0.4, 0.3, 0.2, 0.1}))
	buf := make([]Result, 0, k)

	var searchErr error
	query := func() {
		if _, ok, err := Top1(snap, pref, c); err != nil || !ok {
			searchErr = err
			return
		}
		buf, searchErr = SearchAppend(buf[:0], snap, pref, k, c)
	}
	// Warm-up: grow the pooled searcher's frontier and the heap-sift paths
	// to their steady-state capacity.
	for i := 0; i < 5; i++ {
		query()
		if searchErr != nil {
			t.Fatal(searchErr)
		}
	}

	allocs := testing.AllocsPerRun(200, query)
	if searchErr != nil {
		t.Fatal(searchErr)
	}
	if len(buf) != k {
		t.Fatalf("SearchAppend returned %d results, want %d", len(buf), k)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Top1+SearchAppend allocated %v times per query, want 0", allocs)
	}
}

// TestZeroAllocReusedSearcher asserts the same property for a private
// (non-pooled) searcher driven through Reset/Next directly — the form the
// incremental Brute Force matcher uses.
func TestZeroAllocReusedSearcher(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const d = 3
	snap := buildMemSnapshot(t, 2000, d)
	c := &stats.Counters{}
	pref := prefs.Preference(prefs.MustFunction(0, []float64{0.5, 0.25, 0.25}))
	s := NewSearcher()

	var searchErr error
	query := func() {
		s.Reset(snap, pref, c)
		for i := 0; i < 5; i++ {
			if _, ok, err := s.Next(); err != nil || !ok {
				searchErr = err
				return
			}
		}
	}
	for i := 0; i < 5; i++ {
		query()
		if searchErr != nil {
			t.Fatal(searchErr)
		}
	}
	if allocs := testing.AllocsPerRun(200, query); allocs != 0 {
		t.Fatalf("steady-state Reset+Next allocated %v times per query, want 0", allocs)
	}
	if searchErr != nil {
		t.Fatal(searchErr)
	}
}

// TestLinearFastPathMatchesGeneric pins the Searcher's devirtualized
// flat-slab scoring (the path the resumable streams take) to its generic
// interface path: the same queries over the same memory snapshot must yield
// bit-identical results whether the preference arrives as the concrete
// linear Function (fast path) or wrapped so the type assertion fails
// (generic path).
func TestLinearFastPathMatchesGeneric(t *testing.T) {
	const (
		d = 4
		k = 25
	)
	snap := buildMemSnapshot(t, 3000, d)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		w := make([]float64, d)
		for i := range w {
			// Coarse weights provoke score ties, exercising the tie-breaks.
			w[i] = float64(rng.Intn(4))
		}
		w[rng.Intn(d)]++
		f := prefs.MustFunction(trial, w)
		fast := drainSearcher(t, snap, f, k)
		slow := drainSearcher(t, snap, hideLinear{f}, k)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: fast path returned %d results, generic %d", trial, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].ID != slow[i].ID || fast[i].Score != slow[i].Score || !fast[i].Point.Equal(slow[i].Point) {
				t.Fatalf("trial %d rank %d: fast %+v != generic %+v", trial, i, fast[i], slow[i])
			}
		}
	}
}

// TestDimensionMismatchTakesGenericPath is the regression test for the flat
// fast path striding the slab by the weight count: a linear preference with
// fewer (or more) weights than the index dimension must fall back to the
// generic path and behave exactly like Function.Score over the full points
// (which scores the first len(Weights) coordinates) — not re-chunk the
// coordinate slab into fake lower-dimensional points.
func TestDimensionMismatchTakesGenericPath(t *testing.T) {
	snap := buildMemSnapshot(t, 1500, 4)
	for _, w := range [][]float64{{0.7, 0.3}, {0.5, 0.2, 0.3}} {
		f := prefs.MustFunction(0, w)
		fast := drainSearcher(t, snap, f, 20)
		slow := drainSearcher(t, snap, hideLinear{f}, 20)
		if len(fast) != len(slow) {
			t.Fatalf("weights=%v: %d vs %d results", w, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].ID != slow[i].ID || fast[i].Score != slow[i].Score {
				t.Fatalf("weights=%v rank %d: %+v != %+v", w, i, fast[i], slow[i])
			}
		}
	}
}

// hideLinear wraps a Function so prefs.Linear's type assertion fails,
// forcing the generic interface-scoring path.
type hideLinear struct{ f prefs.Function }

func (h hideLinear) Score(p vec.Point) float64     { return h.f.Score(p) }
func (h hideLinear) UpperBound(r vec.Rect) float64 { return h.f.UpperBound(r) }
