package verify

import (
	"math"
	"testing"

	"prefmatch/internal/core"
	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

func buildTree(t *testing.T, items []index.Item, d int) paged.Index {
	t.Helper()
	tr, err := paged.New(d, &paged.Options{PageSize: 512, Counters: &stats.Counters{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOracleBasics(t *testing.T) {
	objs := []index.Item{
		{ID: 0, Point: vec.Point{1, 0}},
		{ID: 1, Point: vec.Point{0, 1}},
		{ID: 2, Point: vec.Point{0.5, 0.5}},
	}
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{1, 0}), // loves dim 0 -> o0
		prefs.MustFunction(1, []float64{0, 1}), // loves dim 1 -> o1
	}
	pairs := GreedyOracle(objs, fns)
	if len(pairs) != 2 {
		t.Fatalf("%d pairs", len(pairs))
	}
	want := map[int]index.ObjID{0: 0, 1: 1}
	for _, p := range pairs {
		if want[p.FuncID] != p.ObjID {
			t.Fatalf("pair %v unexpected", p)
		}
	}
	if err := CheckProgressive(objs, fns, pairs); err != nil {
		t.Fatal(err)
	}
}

func TestOracleCompetition(t *testing.T) {
	// Both functions want o0 most; the higher-scoring pair wins it.
	objs := []index.Item{
		{ID: 0, Point: vec.Point{1, 1}},
		{ID: 1, Point: vec.Point{0.9, 0}},
	}
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{0.5, 0.5}),
		prefs.MustFunction(1, []float64{1, 0}),
	}
	pairs := GreedyOracle(objs, fns)
	// f0(o0)=1.0* vs f1(o0)=1.0: exact float values decide; both score 1.0
	// exactly here (0.5+0.5 and 1*1), so tie-break picks f0 (smaller ID).
	if pairs[0].FuncID != 0 || pairs[0].ObjID != 0 {
		t.Fatalf("first pair %v, want (f0,o0)", pairs[0])
	}
	if pairs[1].FuncID != 1 || pairs[1].ObjID != 1 {
		t.Fatalf("second pair %v, want (f1,o1)", pairs[1])
	}
	if err := CheckProgressive(objs, fns, pairs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckProgressiveAcceptsAllAlgorithms(t *testing.T) {
	items := dataset.AntiCorrelated(150, 3, 1)
	fns := dataset.Functions(40, 3, 2)
	for _, alg := range []core.Algorithm{core.AlgSB, core.AlgBruteForce, core.AlgChain} {
		tree := buildTree(t, items, 3)
		pairs, err := core.Match(tree, fns, &core.Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckProgressive(items, fns, pairs); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestCheckProgressiveRejectsWrongCount(t *testing.T) {
	objs := []index.Item{{ID: 0, Point: vec.Point{1, 1}}}
	fns := []prefs.Function{prefs.MustFunction(0, []float64{1, 1})}
	if err := CheckProgressive(objs, fns, nil); err == nil {
		t.Fatal("missing pairs accepted")
	}
}

func TestCheckProgressiveRejectsDoubleAssignment(t *testing.T) {
	objs := []index.Item{
		{ID: 0, Point: vec.Point{1, 1}},
		{ID: 1, Point: vec.Point{0.5, 0.5}},
	}
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{1, 1}),
		prefs.MustFunction(1, []float64{1, 2}),
	}
	pairs := []core.Pair{
		{FuncID: 0, ObjID: 0, Score: 1},
		{FuncID: 0, ObjID: 1, Score: 0.5},
	}
	if err := CheckProgressive(objs, fns, pairs); err == nil {
		t.Fatal("double function assignment accepted")
	}
	pairs = []core.Pair{
		{FuncID: 0, ObjID: 0, Score: 1},
		{FuncID: 1, ObjID: 0, Score: 1},
	}
	if err := CheckProgressive(objs, fns, pairs); err == nil {
		t.Fatal("double object assignment accepted")
	}
}

func TestCheckProgressiveRejectsUnknownIDs(t *testing.T) {
	objs := []index.Item{{ID: 0, Point: vec.Point{1, 1}}}
	fns := []prefs.Function{prefs.MustFunction(0, []float64{1, 1})}
	if err := CheckProgressive(objs, fns, []core.Pair{{FuncID: 9, ObjID: 0, Score: 1}}); err == nil {
		t.Fatal("unknown function accepted")
	}
	if err := CheckProgressive(objs, fns, []core.Pair{{FuncID: 0, ObjID: 9, Score: 1}}); err == nil {
		t.Fatal("unknown object accepted")
	}
}

func TestCheckProgressiveRejectsWrongScore(t *testing.T) {
	objs := []index.Item{{ID: 0, Point: vec.Point{1, 1}}}
	fns := []prefs.Function{prefs.MustFunction(0, []float64{1, 1})}
	if err := CheckProgressive(objs, fns, []core.Pair{{FuncID: 0, ObjID: 0, Score: 0.123}}); err == nil {
		t.Fatal("wrong score accepted")
	}
}

// A NaN or infinite score is rejected like any other wrong score. NaN
// fails every comparison, so a check written as "reject when the
// difference is large" let it through.
func TestCheckProgressiveRejectsNonFiniteScore(t *testing.T) {
	objs := []index.Item{{ID: 0, Point: vec.Point{1, 1}}}
	fns := []prefs.Function{prefs.MustFunction(0, []float64{1, 1})}
	good := fns[0].Score(objs[0].Point)
	if err := CheckProgressive(objs, fns, []core.Pair{{FuncID: 0, ObjID: 0, Score: good}}); err != nil {
		t.Fatalf("right score rejected: %v", err)
	}
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckProgressive(objs, fns, []core.Pair{{FuncID: 0, ObjID: 0, Score: s}}); err == nil {
			t.Errorf("score %v accepted", s)
		}
	}
}

func TestCheckProgressiveRejectsUnstableOrder(t *testing.T) {
	// o0 strictly dominates o1 for both functions; assigning the weaker
	// object to the stronger claimant first is unstable.
	objs := []index.Item{
		{ID: 0, Point: vec.Point{1, 1}},
		{ID: 1, Point: vec.Point{0.2, 0.2}},
	}
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{1, 1}),
		prefs.MustFunction(1, []float64{2, 1}),
	}
	bad := []core.Pair{
		{FuncID: 0, ObjID: 1, Score: 0.2}, // f0 should have gotten o0
		{FuncID: 1, ObjID: 0, Score: 1},
	}
	if err := CheckProgressive(objs, fns, bad); err == nil {
		t.Fatal("unstable sequence accepted")
	}
}

func TestSamePairSet(t *testing.T) {
	a := []core.Pair{{FuncID: 0, ObjID: 1, Score: 0.5}, {FuncID: 1, ObjID: 2, Score: 0.4}}
	b := []core.Pair{{FuncID: 1, ObjID: 2, Score: 0.4}, {FuncID: 0, ObjID: 1, Score: 0.5}}
	if !SamePairSet(a, b) {
		t.Fatal("order must not matter")
	}
	c := []core.Pair{{FuncID: 0, ObjID: 2, Score: 0.5}, {FuncID: 1, ObjID: 1, Score: 0.4}}
	if SamePairSet(a, c) {
		t.Fatal("different assignments accepted")
	}
	if SamePairSet(a, a[:1]) {
		t.Fatal("different lengths accepted")
	}
}

// End-to-end: oracle vs matcher on the Zillow-like data, checked both ways.
func TestOracleAgreesWithMatchers(t *testing.T) {
	items := dataset.Zillow(120, 3)
	fns := dataset.Functions(30, dataset.ZillowDim, 4)
	want := GreedyOracle(items, fns)
	if err := CheckProgressive(items, fns, want); err != nil {
		t.Fatalf("oracle output fails its own checker: %v", err)
	}
	for _, alg := range []core.Algorithm{core.AlgSB, core.AlgBruteForce, core.AlgChain} {
		tree := buildTree(t, items, dataset.ZillowDim)
		got, err := core.Match(tree, fns, &core.Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if !SamePairSet(got, want) {
			t.Fatalf("%v disagrees with oracle", alg)
		}
	}
}
