package prefs

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"prefmatch/internal/vec"
)

func TestNewFunctionNormalises(t *testing.T) {
	f, err := NewFunction(1, []float64{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := vec.Point{0.25, 0.25, 0.5}
	if !f.Weights.Equal(want) {
		t.Fatalf("weights = %v, want %v", f.Weights, want)
	}
	sum := 0.0
	for _, w := range f.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestNewFunctionErrors(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		wantErr error
	}{
		{"empty", nil, ErrNoWeights},
		{"negative", []float64{1, -0.5}, ErrNegativeWeight},
		{"all zero", []float64{0, 0}, ErrZeroWeights},
		{"nan", []float64{math.NaN(), 1}, ErrBadWeight},
		{"inf", []float64{math.Inf(1), 1}, ErrBadWeight},
	}
	for _, c := range cases {
		if _, err := NewFunction(0, c.weights); !errors.Is(err, c.wantErr) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
	}
}

// Finite weights whose sum overflows float64 normalise like the same
// preference written at a smaller scale, bit for bit, instead of dividing
// by +Inf into all-zero weights.
func TestNewFunctionOverflowingSum(t *testing.T) {
	small := []float64{1.5, 1.25, 0.75, 0.5}
	huge := make([]float64, len(small))
	for i, w := range small {
		huge[i] = math.Ldexp(w, 1023) // finite, but the sum overflows
	}
	want, err := NewFunction(1, small)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewFunction(1, huge)
	if err != nil {
		t.Fatal(err)
	}
	arena := vec.Point{42}
	app, arena, err := AppendFunction(arena, 1, huge)
	if err != nil {
		t.Fatal(err)
	}
	if arena[0] != 42 || len(arena) != 1+len(huge) {
		t.Fatalf("AppendFunction arena = %v, want 42 followed by the weights", arena)
	}
	for i := range small {
		w := math.Float64bits(want.Weights[i])
		if math.Float64bits(got.Weights[i]) != w || math.Float64bits(app.Weights[i]) != w {
			t.Fatalf("weight %d: NewFunction %v, AppendFunction %v, want %v",
				i, got.Weights[i], app.Weights[i], want.Weights[i])
		}
	}
}

func TestMustFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFunction(0, nil)
}

func TestScoreEquationOne(t *testing.T) {
	f := MustFunction(7, []float64{0.5, 0.3, 0.2})
	o := vec.Point{1.0, 0.5, 0.0}
	want := 0.5*1.0 + 0.3*0.5 + 0.2*0.0
	if got := f.Score(o); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
}

func TestUpperBoundAttainedAtHiCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(4)
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.Float64()
		}
		w[rng.Intn(d)] += 0.01 // ensure not all zero
		f := MustFunction(trial, w)
		lo := make(vec.Point, d)
		hi := make(vec.Point, d)
		for i := 0; i < d; i++ {
			a, b := rng.Float64(), rng.Float64()
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
		}
		r := vec.Rect{Lo: lo, Hi: hi}
		ub := f.UpperBound(r)
		for s := 0; s < 20; s++ {
			p := make(vec.Point, d)
			for i := range p {
				p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			if f.Score(p) > ub+1e-12 {
				t.Fatalf("interior point %v scores %v above bound %v", p, f.Score(p), ub)
			}
		}
		if math.Abs(f.Score(hi)-ub) > 1e-12 {
			t.Fatalf("upper bound %v not attained at Hi corner (%v)", ub, f.Score(hi))
		}
	}
}

func TestMonotonicityOfScore(t *testing.T) {
	// If p weakly dominates q then Score(p) >= Score(q), for every
	// preference kind — the foundation of the skyline observation in § III-B.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(4)
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.Float64() + 0.01
		}
		lin := MustFunction(0, w)
		cd, err := NewCobbDouglas(0, w)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMinScore(0, w)
		if err != nil {
			t.Fatal(err)
		}
		q := make(vec.Point, d)
		p := make(vec.Point, d)
		for i := range q {
			q[i] = rng.Float64()
			p[i] = q[i] + rng.Float64()*0.5 // p weakly dominates q
		}
		for _, pref := range []Preference{lin, cd, ms} {
			if pref.Score(p) < pref.Score(q)-1e-12 {
				t.Fatalf("%v not monotone: p=%v q=%v", pref, p, q)
			}
		}
	}
}

func TestBetterFunc(t *testing.T) {
	cases := []struct {
		sa   float64
		ia   int
		sb   float64
		ib   int
		want bool
	}{
		{2, 5, 1, 1, true},  // higher score wins
		{1, 5, 2, 1, false}, // lower score loses
		{1, 1, 1, 2, true},  // tie: smaller ID wins
		{1, 2, 1, 1, false}, // tie: larger ID loses
		{1, 1, 1, 1, false}, // full tie: not strictly better
	}
	for _, c := range cases {
		if got := BetterFunc(c.sa, c.ia, c.sb, c.ib); got != c.want {
			t.Errorf("BetterFunc(%v,%d,%v,%d) = %v, want %v", c.sa, c.ia, c.sb, c.ib, got, c.want)
		}
	}
}

func TestBetterObj(t *testing.T) {
	cases := []struct {
		sa, suma float64
		ia       int
		sb, sumb float64
		ib       int
		want     bool
	}{
		{2, 0, 5, 1, 9, 1, true},  // higher score wins regardless of sum/id
		{1, 5, 5, 1, 1, 1, true},  // score tie: larger sum wins
		{1, 1, 5, 1, 5, 1, false}, // score+sum tie vs smaller id loses
		{1, 1, 1, 1, 1, 5, true},  // score+sum tie: smaller id wins
		{1, 1, 1, 1, 1, 1, false}, // full tie
	}
	for _, c := range cases {
		if got := BetterObj(c.sa, c.suma, c.ia, c.sb, c.sumb, c.ib); got != c.want {
			t.Errorf("BetterObj(%v) = %v, want %v", c, got, c.want)
		}
	}
}

// The global pair order must agree with the per-side orders when restricted
// to pairs sharing a function or sharing an object. This consistency is what
// makes "iteratively remove the globally best pair" a stable matching under
// the per-side preference lists.
func TestPairKeyConsistencyWithSideOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid := func() float64 { return float64(rng.Intn(4)) / 3 }
	for trial := 0; trial < 5000; trial++ {
		// Shared function: pair order must equal BetterObj.
		fid := rng.Intn(5)
		a := PairKey{Score: grid(), ObjSum: grid(), FuncID: fid, ObjID: rng.Intn(5)}
		b := PairKey{Score: grid(), ObjSum: grid(), FuncID: fid, ObjID: rng.Intn(5)}
		if a.Better(b) != BetterObj(a.Score, a.ObjSum, a.ObjID, b.Score, b.ObjSum, b.ObjID) {
			t.Fatalf("shared-function inconsistency: %+v vs %+v", a, b)
		}
		// Shared object: pair order must equal BetterFunc.
		oid := rng.Intn(5)
		osum := grid()
		c := PairKey{Score: grid(), ObjSum: osum, FuncID: rng.Intn(5), ObjID: oid}
		d := PairKey{Score: grid(), ObjSum: osum, FuncID: rng.Intn(5), ObjID: oid}
		if c.Better(d) != BetterFunc(c.Score, c.FuncID, d.Score, d.FuncID) {
			t.Fatalf("shared-object inconsistency: %+v vs %+v", c, d)
		}
	}
}

// PairKey.Better must be a strict total order: irreflexive, asymmetric,
// transitive, and total on distinct keys.
func TestPairKeyStrictTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randKey := func() PairKey {
		return PairKey{
			Score:  float64(rng.Intn(3)) / 2,
			ObjSum: float64(rng.Intn(3)) / 2,
			FuncID: rng.Intn(3),
			ObjID:  rng.Intn(3),
		}
	}
	for trial := 0; trial < 5000; trial++ {
		a, b, c := randKey(), randKey(), randKey()
		if a.Better(a) {
			t.Fatalf("irreflexivity violated: %+v", a)
		}
		if a.Better(b) && b.Better(a) {
			t.Fatalf("asymmetry violated: %+v %+v", a, b)
		}
		if a.Better(b) && b.Better(c) && !a.Better(c) {
			t.Fatalf("transitivity violated: %+v %+v %+v", a, b, c)
		}
		if a != b && !a.Better(b) && !b.Better(a) {
			t.Fatalf("totality violated: %+v %+v", a, b)
		}
	}
}

func TestCobbDouglasValidation(t *testing.T) {
	if _, err := NewCobbDouglas(0, []float64{-1, 1}); err == nil {
		t.Fatal("negative exponent accepted")
	}
	cd, err := NewCobbDouglas(1, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Balanced point beats lopsided point of equal sum.
	if cd.Score(vec.Point{0.5, 0.5}) <= cd.Score(vec.Point{0.99, 0.01}) {
		t.Fatal("Cobb-Douglas should prefer balance")
	}
}

func TestMinScoreValidation(t *testing.T) {
	if _, err := NewMinScore(0, []float64{0, 1}); err == nil {
		t.Fatal("zero weight accepted by MinScore")
	}
	if _, err := NewMinScore(0, nil); !errors.Is(err, ErrNoWeights) {
		t.Fatal("empty weights accepted")
	}
	m, err := NewMinScore(1, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Score(vec.Point{0.5, 0.1}); got != 0.2 {
		t.Fatalf("MinScore = %v, want 0.2", got)
	}
}

func TestMinScoreDoesNotMutateCallerWeights(t *testing.T) {
	w := []float64{1, 2}
	m, _ := NewMinScore(0, w)
	w[0] = 100
	if m.Weights[0] != 1 {
		t.Fatal("MinScore aliases caller slice")
	}
}

func TestUpperBoundsOfMonotonePreferences(t *testing.T) {
	r := vec.Rect{Lo: vec.Point{0.2, 0.3}, Hi: vec.Point{0.8, 0.9}}
	cd, _ := NewCobbDouglas(0, []float64{1, 1})
	ms, _ := NewMinScore(0, []float64{1, 1})
	for _, pref := range []Preference{cd, ms} {
		if ub := pref.UpperBound(r); math.Abs(ub-pref.Score(r.Hi)) > 1e-12 {
			t.Errorf("%v: UpperBound %v != Score(Hi) %v", pref, ub, pref.Score(r.Hi))
		}
	}
}
