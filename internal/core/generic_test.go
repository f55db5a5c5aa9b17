package core

import (
	"math/rand"
	"testing"

	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
)

// genericOracle is the exhaustive greedy reference over arbitrary monotone
// preferences.
func genericOracle(objs []index.Item, gps []GenericPreference) []Pair {
	aliveO := make([]bool, len(objs))
	aliveF := make([]bool, len(gps))
	for i := range aliveO {
		aliveO[i] = true
	}
	for i := range aliveF {
		aliveF[i] = true
	}
	n := min(len(objs), len(gps))
	var out []Pair
	for len(out) < n {
		bf, bo := -1, -1
		var bk prefs.PairKey
		for fi := range gps {
			if !aliveF[fi] {
				continue
			}
			for oi := range objs {
				if !aliveO[oi] {
					continue
				}
				k := prefs.PairKey{
					Score:  gps[fi].Pref.Score(objs[oi].Point),
					ObjSum: objs[oi].Point.Sum(),
					FuncID: gps[fi].ID,
					ObjID:  int(objs[oi].ID),
				}
				if bf == -1 || k.Better(bk) {
					bf, bo, bk = fi, oi, k
				}
			}
		}
		aliveF[bf] = false
		aliveO[bo] = false
		out = append(out, Pair{FuncID: gps[bf].ID, ObjID: objs[bo].ID, Score: bk.Score})
	}
	return out
}

// mixedPreferences builds a set mixing linear, Cobb-Douglas and min-score
// preferences.
func mixedPreferences(rng *rand.Rand, n, d int) []GenericPreference {
	gps := make([]GenericPreference, n)
	for i := range gps {
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64() + 0.05
		}
		var p prefs.Preference
		switch i % 3 {
		case 0:
			p = prefs.MustFunction(i, w)
		case 1:
			cd, err := prefs.NewCobbDouglas(i, w)
			if err != nil {
				panic(err)
			}
			p = cd
		default:
			ms, err := prefs.NewMinScore(i, w)
			if err != nil {
				panic(err)
			}
			p = ms
		}
		gps[i] = GenericPreference{ID: i, Pref: p}
	}
	return gps
}

func TestGenericMatchersAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		items []index.Item
		d     int
	}{
		{"indep-3d", dataset.Independent(150, 3, 2), 3},
		{"anti-3d", dataset.AntiCorrelated(120, 3, 3), 3},
		{"zillow", dataset.Zillow(120, 4), dataset.ZillowDim},
		{"ties", gridItems(rng, 100, 2, 3), 2},
	} {
		gps := mixedPreferences(rng, 35, tc.d)
		want := genericOracle(tc.items, gps)
		for _, alg := range []Algorithm{AlgSB, AlgBruteForce, AlgBruteForceIncremental} {
			tree := buildTree(t, tc.items, tc.d)
			got, err := MatchGeneric(tree, gps, &Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, alg, err)
			}
			if !pairSetEqual(got, want) {
				t.Fatalf("%s/%v: matching differs from oracle\ngot:  %v\nwant: %v", tc.name, alg, got, want)
			}
		}
	}
}

func TestGenericLinearAgreesWithLinearPath(t *testing.T) {
	// Wrapping plain linear functions in the generic matcher must give the
	// same matching as the TA-based linear path.
	items := dataset.Independent(200, 3, 5)
	fns := dataset.Functions(40, 3, 6)
	gps := make([]GenericPreference, len(fns))
	for i, f := range fns {
		gps[i] = GenericPreference{ID: f.ID, Pref: f}
	}
	linTree := buildTree(t, items, 3)
	want, err := Match(linTree, fns, &Options{Algorithm: AlgSB})
	if err != nil {
		t.Fatal(err)
	}
	genTree := buildTree(t, items, 3)
	got, err := MatchGeneric(genTree, gps, &Options{Algorithm: AlgSB})
	if err != nil {
		t.Fatal(err)
	}
	if !pairSetEqual(got, want) {
		t.Fatal("generic SB disagrees with linear SB on linear input")
	}
}

func TestGenericValidation(t *testing.T) {
	items := dataset.Independent(10, 2, 7)
	tree := buildTree(t, items, 2)
	gps := mixedPreferences(rand.New(rand.NewSource(8)), 5, 2)

	if _, err := NewGenericMatcher(nil, gps, nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := NewGenericMatcher(tree, nil, nil); err == nil {
		t.Fatal("empty preferences accepted")
	}
	if _, err := NewGenericMatcher(tree, []GenericPreference{{ID: 1, Pref: nil}}, nil); err == nil {
		t.Fatal("nil preference accepted")
	}
	dup := []GenericPreference{
		{ID: 1, Pref: prefs.MustFunction(1, []float64{1, 1})},
		{ID: 1, Pref: prefs.MustFunction(1, []float64{2, 1})},
	}
	if _, err := NewGenericMatcher(tree, dup, nil); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := NewGenericMatcher(tree, gps, &Options{Algorithm: AlgChain}); err == nil {
		t.Fatal("Chain must be rejected for generic preferences")
	}
	if _, err := NewGenericMatcher(tree, gps, &Options{Algorithm: Algorithm(9)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestGenericProgressiveAndExhaustion(t *testing.T) {
	items := dataset.Independent(10, 3, 9)
	gps := mixedPreferences(rand.New(rand.NewSource(10)), 25, 3)
	for _, alg := range []Algorithm{AlgSB, AlgBruteForce, AlgBruteForceIncremental} {
		tree := buildTree(t, items, 3)
		m, err := NewGenericMatcher(tree, gps, &Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for {
			_, ok, err := m.Next()
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if !ok {
				break
			}
			count++
		}
		if count != 10 {
			t.Fatalf("%v: %d pairs, want 10 (object exhaustion)", alg, count)
		}
		if _, ok, _ := m.Next(); ok {
			t.Fatalf("%v: emitted after completion", alg)
		}
	}
}

func TestGenericSkylineModesAgree(t *testing.T) {
	items := dataset.AntiCorrelated(150, 3, 11)
	gps := mixedPreferences(rand.New(rand.NewSource(12)), 30, 3)
	want := genericOracle(items, gps)
	for _, mode := range []skyline.Mode{skyline.MaintainPlist, skyline.MaintainRetraverse, skyline.MaintainRecompute} {
		tree := buildTree(t, items, 3)
		got, err := MatchGeneric(tree, gps, &Options{Algorithm: AlgSB, SkylineMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !pairSetEqual(got, want) {
			t.Fatalf("mode %v: matching differs", mode)
		}
	}
}

func TestGenericRandomizedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		nObj := 5 + rng.Intn(80)
		nPref := 1 + rng.Intn(40)
		var items []index.Item
		if rng.Intn(2) == 0 {
			items = dataset.Independent(nObj, d, seed*13+1)
		} else {
			items = gridItems(rng, nObj, d, 2+rng.Intn(3))
		}
		gps := mixedPreferences(rng, nPref, d)
		want := genericOracle(items, gps)
		for _, alg := range []Algorithm{AlgSB, AlgBruteForce, AlgBruteForceIncremental} {
			tree := buildTree(t, items, d)
			got, err := MatchGeneric(tree, gps, &Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, alg, err)
			}
			if !pairSetEqual(got, want) {
				t.Fatalf("seed %d %v: differs from oracle (d=%d |O|=%d |P|=%d)", seed, alg, d, nObj, nPref)
			}
		}
	}
}
