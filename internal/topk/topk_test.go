package topk

import (
	"math/rand"
	"sort"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

func buildTree(t *testing.T, rng *rand.Rand, n, d int) (paged.Index, []index.Item) {
	t.Helper()
	items := make([]index.Item, n)
	for i := range items {
		p := make(vec.Point, d)
		for j := range p {
			// Coarse grid to provoke score ties.
			p[j] = float64(rng.Intn(20)) / 19
		}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	tr, err := paged.New(d, &paged.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	return tr, items
}

func randFunc(rng *rand.Rand, id, d int) prefs.Function {
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.Float64()
	}
	w[rng.Intn(d)] += 0.01
	return prefs.MustFunction(id, w)
}

// referenceOrder sorts items by the exact function-side preference order.
func referenceOrder(items []index.Item, f prefs.Preference) []index.Item {
	out := make([]index.Item, len(items))
	copy(out, items)
	sort.Slice(out, func(i, j int) bool {
		si, sj := f.Score(out[i].Point), f.Score(out[j].Point)
		return prefs.BetterObj(si, out[i].Point.Sum(), int(out[i].ID), sj, out[j].Point.Sum(), int(out[j].ID))
	})
	return out
}

// drainSearcher is the resumable engine's answer to a top-k query: a fresh
// Searcher drained k deep (fewer when the tree runs dry). The equivalence
// tests use it as the second engine beside the batch searcher.
func drainSearcher(t *testing.T, tr index.ObjectIndex, pref prefs.Preference, k int) []Result {
	t.Helper()
	s := NewSearcher()
	s.Reset(tr, pref, &stats.Counters{})
	var out []Result
	for len(out) < k {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestTop1MatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3, 5} {
		tr, items := buildTree(t, rng, 800, d)
		for trial := 0; trial < 40; trial++ {
			f := randFunc(rng, trial, d)
			got, ok, err := Top1(tr, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("Top1 found nothing in non-empty tree")
			}
			want := referenceOrder(items, f)[0]
			if got.ID != want.ID {
				t.Fatalf("d=%d trial %d: Top1 = %d (score %v), want %d (score %v)",
					d, trial, got.ID, got.Score, want.ID, f.Score(want.Point))
			}
			if got.Score != f.Score(want.Point) {
				t.Fatalf("score mismatch: %v vs %v", got.Score, f.Score(want.Point))
			}
		}
	}
}

func TestIncrementalOrderIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, items := buildTree(t, rng, 500, 3)
	for trial := 0; trial < 10; trial++ {
		f := randFunc(rng, trial, 3)
		want := referenceOrder(items, f)
		s := NewSearcher()
		s.Reset(tr, f, nil)
		for i := 0; i < len(items); i++ {
			r, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("search exhausted at %d of %d", i, len(items))
			}
			if r.ID != want[i].ID {
				t.Fatalf("trial %d rank %d: got %d (score %v), want %d (score %v)",
					trial, i, r.ID, r.Score, want[i].ID, f.Score(want[i].Point))
			}
		}
		if _, ok, _ := s.Next(); ok {
			t.Fatal("search returned more objects than the tree holds")
		}
	}
}

func TestSearchK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, items := buildTree(t, rng, 300, 3)
	f := randFunc(rng, 0, 3)
	want := referenceOrder(items, f)
	for _, k := range []int{0, 1, 5, 300, 1000} {
		got, err := Search(tr, f, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(k, len(items))
		if len(got) != wantLen {
			t.Fatalf("k=%d: got %d results, want %d", k, len(got), wantLen)
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("k=%d rank %d: got %d, want %d", k, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestSearchNonPositiveK is the regression test for the negative-k panic:
// Search used to run make([]Result, 0, k) unguarded, so k < 0 crashed with
// "makeslice: cap out of range". Non-positive k now returns (nil, nil).
func TestSearchNonPositiveK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _ := buildTree(t, rng, 50, 2)
	f := randFunc(rng, 0, 2)
	for _, k := range []int{0, -1, -1000} {
		got, err := Search(tr, f, k, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got != nil {
			t.Fatalf("k=%d: got %d results, want nil", k, len(got))
		}
	}
	buf := make([]Result, 0, 4)
	out, err := SearchAppend(buf, tr, f, -3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("SearchAppend with negative k appended %d results", len(out))
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := prefs.MustFunction(0, []float64{1, 1})
	if _, ok, err := Top1(tr, f, nil); err != nil || ok {
		t.Fatalf("Top1 on empty tree: ok=%v err=%v", ok, err)
	}
}

func TestMonotonePreferences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, items := buildTree(t, rng, 400, 3)
	cd, err := prefs.NewCobbDouglas(0, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := prefs.NewMinScore(1, []float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pref := range []prefs.Preference{cd, ms} {
		got, ok, err := Top1(tr, pref, nil)
		if err != nil || !ok {
			t.Fatalf("Top1: ok=%v err=%v", ok, err)
		}
		want := referenceOrder(items, pref)[0]
		if got.ID != want.ID {
			t.Fatalf("%T: Top1 = %d, want %d", pref, got.ID, want.ID)
		}
	}
}

func TestTop1AfterDeletions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, items := buildTree(t, rng, 300, 3)
	f := randFunc(rng, 0, 3)
	alive := make(map[index.ObjID]bool, len(items))
	for _, it := range items {
		alive[it.ID] = true
	}
	// Repeatedly delete the top-1 and verify the next search agrees with a
	// scan over the survivors — the Brute Force inner loop.
	for step := 0; step < 50; step++ {
		got, ok, err := Top1(tr, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("tree exhausted early")
		}
		var want *index.Item
		for i := range items {
			if !alive[items[i].ID] {
				continue
			}
			if want == nil || prefs.BetterObj(
				f.Score(items[i].Point), items[i].Point.Sum(), int(items[i].ID),
				f.Score(want.Point), want.Point.Sum(), int(want.ID)) {
				want = &items[i]
			}
		}
		if got.ID != want.ID {
			t.Fatalf("step %d: Top1 = %d, want %d", step, got.ID, want.ID)
		}
		if err := tr.Delete(got.ID, got.Point); err != nil {
			t.Fatal(err)
		}
		alive[got.ID] = false
	}
}

func TestSearchIsIOBounded(t *testing.T) {
	// A top-1 search must read far fewer pages than the whole tree.
	rng := rand.New(rand.NewSource(6))
	c := &stats.Counters{}
	items := make([]index.Item, 20000)
	for i := range items {
		p := vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	tr, err := paged.New(3, &paged.Options{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tr.DropBuffer(); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	f := prefs.MustFunction(0, []float64{0.2, 0.5, 0.3})
	if _, ok, err := Top1(tr, f, c); err != nil || !ok {
		t.Fatalf("Top1: %v %v", ok, err)
	}
	if c.PageReads == 0 {
		t.Fatal("cold search should read pages")
	}
	if int(c.PageReads) > tr.NumPages()/4 {
		t.Fatalf("top-1 read %d of %d pages; branch-and-bound is not pruning", c.PageReads, tr.NumPages())
	}
	if c.Top1Searches != 1 {
		t.Fatalf("Top1Searches = %d, want 1", c.Top1Searches)
	}
}

func TestTiesResolvedByObjectSumThenID(t *testing.T) {
	// Objects with identical score under f but different sums and IDs.
	items := []index.Item{
		{ID: 10, Point: vec.Point{1, 0}}, // score .5 with equal weights, sum 1
		{ID: 3, Point: vec.Point{0.5, 0.5}},
		{ID: 4, Point: vec.Point{0.5, 0.5}},
		{ID: 5, Point: vec.Point{0.25, 0.75}},
	}
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	f := prefs.MustFunction(0, []float64{1, 1}) // normalised to (.5, .5): all score 0.5
	s := NewSearcher()
	s.Reset(tr, f, nil)
	// All score 0.5; all sums are 1.0, so order is purely by ID: 3,4,5,10.
	for _, want := range []index.ObjID{3, 4, 5, 10} {
		r, ok, err := s.Next()
		if err != nil || !ok {
			t.Fatalf("Next: %v %v", ok, err)
		}
		if r.ID != want {
			t.Fatalf("tie order: got %d, want %d", r.ID, want)
		}
	}
}

// TestFrontierOrderAgreesWithBetter pins the frontier heap's object
// tie-break (cached sums, better) to the exported canonical result order
// (Better, recomputed sums): any divergence would silently break the
// bit-identity of a drained Searcher with a batch search.
func TestFrontierOrderAgreesWithBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randItem := func() heapItem {
		p := vec.Point{rng.Float64(), float64(rng.Intn(3)) / 2}
		// Coarse scores and coordinates force frequent ties on every key.
		return heapItem{
			bound: float64(rng.Intn(4)) / 4,
			isObj: true,
			id:    index.ObjID(rng.Intn(8)),
			point: p,
			sum:   p.Sum(),
		}
	}
	toResult := func(it heapItem) Result {
		return Result{ID: it.id, Point: it.point, Score: it.bound}
	}
	for i := 0; i < 10000; i++ {
		a, b := randItem(), randItem()
		if better(a, b) != Better(toResult(a), toResult(b)) {
			t.Fatalf("frontier order and Better disagree on %+v vs %+v", a, b)
		}
	}
}
