package topk

import (
	"math/rand"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
)

// batchPrefs converts concrete functions to the boxed preference slice a
// BatchSearcher takes.
func batchPrefs(fns []prefs.Function) []prefs.Preference {
	ps := make([]prefs.Preference, len(fns))
	for i, f := range fns {
		ps[i] = f
	}
	return ps
}

// searchBatch runs one BatchSearcher over fns, every function wanting k,
// charging c.
func searchBatch(t *testing.T, tr index.ObjectIndex, fns []prefs.Preference, k int, c *stats.Counters) {
	t.Helper()
	ks := make([]int, len(fns))
	for i := range ks {
		ks[i] = k
	}
	b := AcquireBatchSearcher(tr, fns, ks, c)
	defer b.Release()
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDeactivatesWithoutDraining pins the termination mechanism: with
// small k over a large tree the per-function thresholds rise until every
// function deactivates, so Run must stop with work still queued — the shared
// frontier is abandoned, not drained. Results still match the independent
// searches exactly.
func TestBatchDeactivatesWithoutDraining(t *testing.T) {
	snap := buildMemSnapshot(t, 5000, 3)
	rng := rand.New(rand.NewSource(11))
	fns := make([]prefs.Function, 8)
	ks := make([]int, len(fns))
	for i := range fns {
		fns[i] = randFunc(rng, i, 3)
		ks[i] = 5
	}
	b := NewBatchSearcher()
	b.Reset(snap, batchPrefs(fns), ks, &stats.Counters{})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if b.nActive != 0 {
		t.Fatalf("%d functions still active after Run", b.nActive)
	}
	if len(b.frontier.Items()) == 0 {
		t.Fatal("frontier drained completely; expected deactivation to end the traversal early")
	}
	for f := range fns {
		got := b.AppendResults(f, nil)
		assertSameResults(t, f, got, drainSearcher(t, snap, fns[f], ks[f]))
	}
}

// TestBatchDimensionMismatchTakesGenericPath: one function with the wrong
// width sends the whole batch down the generic path, which must degrade
// exactly like the unbatched generic fallback (Function.Score over the first
// len(Weights) coordinates).
func TestBatchDimensionMismatchTakesGenericPath(t *testing.T) {
	snap := buildMemSnapshot(t, 1500, 4)
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{0.7, 0.3}), // 2 weights against a 4-d index
		prefs.MustFunction(1, []float64{0.4, 0.3, 0.2, 0.1}),
		prefs.MustFunction(2, []float64{0.5, 0.2, 0.3}),
	}
	ks := []int{20, 20, 20}
	b := NewBatchSearcher()
	b.Reset(snap, batchPrefs(fns), ks, &stats.Counters{})
	if b.allLinear {
		t.Fatal("dimension-mismatched batch kept the linear fast path")
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for f := range fns {
		got := b.AppendResults(f, nil)
		assertSameResults(t, f, got, drainSearcher(t, snap, fns[f], ks[f]))
	}
}

// TestBatchMixedPreferenceTakesGenericPath: a batch mixing a linear function
// with a non-linear monotone preference must match the per-function searches
// through the interface path.
func TestBatchMixedPreferenceTakesGenericPath(t *testing.T) {
	snap := buildMemSnapshot(t, 2000, 3)
	lin := prefs.MustFunction(0, []float64{0.5, 0.25, 0.25})
	cd, err := prefs.NewCobbDouglas(1, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	fns := []prefs.Preference{lin, cd, hideLinear{lin}}
	ks := []int{7, 7, 7}
	b := NewBatchSearcher()
	b.Reset(snap, fns, ks, &stats.Counters{})
	if b.allLinear {
		t.Fatal("mixed batch kept the linear fast path")
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for f := range fns {
		got := b.AppendResults(f, nil)
		assertSameResults(t, f, got, drainSearcher(t, snap, fns[f], ks[f]))
	}
}

// TestBatchCountersDeterministic: the batched traversal is sequential, so the
// work counters of identical runs must agree exactly — the property benchfig
// relies on when comparing NodesVisited across configurations.
func TestBatchCountersDeterministic(t *testing.T) {
	snap := buildMemSnapshot(t, 3000, 4)
	rng := rand.New(rand.NewSource(13))
	fns := make([]prefs.Function, 6)
	for i := range fns {
		fns[i] = randFunc(rng, i, 4)
	}
	run := func() stats.Counters {
		c := &stats.Counters{}
		searchBatch(t, snap, batchPrefs(fns), 5, c)
		return *c
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical batched runs produced different counters:\n%v\n%v", a.String(), b.String())
	}
	if a.NodesVisited == 0 || a.Top1Searches != int64(len(fns)) {
		t.Fatalf("implausible batch counters: %v", a.String())
	}
}

// TestBatchSharesNodeVisits is the shared-work acceptance property: a Q=16
// batch must read less than half the R-tree nodes that 16 independent
// searches (SearchAppend, a batch of one each) read (it should in fact be
// close to 1/16th on the upper levels), without multiplying scoring: the
// pop-time per-function test keeps its score evaluations within 10% of the
// independent searches'.
func TestBatchSharesNodeVisits(t *testing.T) {
	const (
		q = 16
		k = 10
	)
	snap := buildMemSnapshot(t, 5000, 4)
	rng := rand.New(rand.NewSource(14))
	fns := make([]prefs.Function, q)
	for i := range fns {
		fns[i] = randFunc(rng, i, 4)
	}
	ind := &stats.Counters{}
	for _, f := range fns {
		if _, err := SearchAppend(nil, snap, f, k, ind); err != nil {
			t.Fatal(err)
		}
	}
	bat := &stats.Counters{}
	searchBatch(t, snap, batchPrefs(fns), k, bat)
	if bat.NodesVisited*2 >= ind.NodesVisited {
		t.Fatalf("batched traversal visited %d nodes, independent searches %d; want < 0.5×",
			bat.NodesVisited, ind.NodesVisited)
	}
	if bat.ScoreEvals*10 > ind.ScoreEvals*11 {
		t.Fatalf("batched traversal made %d score evaluations, independent searches %d; want ≤ 1.1×",
			bat.ScoreEvals, ind.ScoreEvals)
	}
}

// TestBatchZeroAllocSteadyState extends the serving-path guarantee to the
// batched searcher: after warm-up, a pooled acquire/run/collect/release cycle
// over a memory snapshot allocates nothing.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		q = 8
		k = 10
	)
	snap := buildMemSnapshot(t, 5000, 4)
	c := &stats.Counters{}
	rng := rand.New(rand.NewSource(15))
	fns := make([]prefs.Preference, q)
	ks := make([]int, q)
	for i := range fns {
		fns[i] = randFunc(rng, i, 4)
		ks[i] = k
	}
	buf := make([]Result, 0, q*k)

	var runErr error
	query := func() {
		b := AcquireBatchSearcher(snap, fns, ks, c)
		if err := b.Run(); err != nil {
			runErr = err
			b.Release()
			return
		}
		buf = buf[:0]
		for f := 0; f < q; f++ {
			buf = b.AppendResults(f, buf)
		}
		b.Release()
	}
	for i := 0; i < 5; i++ {
		query()
		if runErr != nil {
			t.Fatal(runErr)
		}
	}
	allocs := testing.AllocsPerRun(200, query)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(buf) != q*k {
		t.Fatalf("collected %d results, want %d", len(buf), q*k)
	}
	if allocs != 0 {
		t.Fatalf("steady-state batched search allocated %v times per batch, want 0", allocs)
	}
}

func assertSameResults(t *testing.T, f int, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fn %d: batch returned %d results, independent search %d", f, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score || !got[i].Point.Equal(want[i].Point) {
			t.Fatalf("fn %d rank %d: batch %+v != independent %+v", f, i, got[i], want[i])
		}
	}
}
