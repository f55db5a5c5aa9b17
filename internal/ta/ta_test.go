package ta

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

func randFuncs(rng *rand.Rand, n, d int) []prefs.Function {
	fns := make([]prefs.Function, n)
	for i := range fns {
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64()
		}
		w[rng.Intn(d)] += 0.01
		fns[i] = prefs.MustFunction(i, w)
	}
	return fns
}

func randObj(rng *rand.Rand, d int) vec.Point {
	p := make(vec.Point, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// top1 runs the reverse top-1 search: ReverseTopM with m = 1.
func top1(l *Lists, o vec.Point) (idx int, score float64, ok bool) {
	hits := l.ReverseTopM(o, 1, nil)
	if len(hits) == 0 {
		return -1, 0, false
	}
	return int(hits[0].Idx), hits[0].Score, true
}

// scanBest is the exhaustive reference for reverse top-1.
func scanBest(fns []prefs.Function, alive func(int) bool, o vec.Point) (int, float64) {
	best := -1
	bestScore := 0.0
	for i := range fns {
		if !alive(i) {
			continue
		}
		s := fns[i].Score(o)
		if best < 0 || prefs.BetterFunc(s, fns[i].ID, bestScore, fns[best].ID) {
			best, bestScore = i, s
		}
	}
	return best, bestScore
}

func TestNewListsValidation(t *testing.T) {
	if _, err := NewLists(nil, nil); err == nil {
		t.Fatal("empty function set accepted")
	}
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{1, 1}),
		prefs.MustFunction(1, []float64{1, 1, 1}),
	}
	if _, err := NewLists(fns, nil); err == nil {
		t.Fatal("mixed dimensions accepted")
	}
}

func TestReverseTop1MatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3, 4, 6} {
		fns := randFuncs(rng, 500, d)
		l, err := NewLists(fns, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			o := randObj(rng, d)
			gotIdx, gotScore, ok := top1(l, o)
			if !ok {
				t.Fatal("no result with live functions")
			}
			wantIdx, wantScore := scanBest(fns, l.Alive, o)
			if gotIdx != wantIdx || math.Abs(gotScore-wantScore) > 1e-12 {
				t.Fatalf("d=%d trial %d: got f%d (%v), want f%d (%v)", d, trial, gotIdx, gotScore, wantIdx, wantScore)
			}
		}
	}
}

func TestReverseTop1UnderRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fns := randFuncs(rng, 300, 3)
	l, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l.AliveCount() > 0 {
		o := randObj(rng, 3)
		gotIdx, gotScore, ok := top1(l, o)
		if !ok {
			t.Fatal("no result with live functions")
		}
		wantIdx, wantScore := scanBest(fns, l.Alive, o)
		if gotIdx != wantIdx || math.Abs(gotScore-wantScore) > 1e-12 {
			t.Fatalf("alive=%d: got f%d (%v), want f%d (%v)", l.AliveCount(), gotIdx, gotScore, wantIdx, wantScore)
		}
		// Remove the winner, as the matcher does.
		if err := l.Remove(gotIdx); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := top1(l, randObj(rng, 3)); ok {
		t.Fatal("result from an empty function set")
	}
}

func TestRemoveValidation(t *testing.T) {
	fns := randFuncs(rand.New(rand.NewSource(3)), 5, 2)
	l, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(2); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := l.Remove(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := l.Remove(5); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if l.AliveCount() != 4 {
		t.Fatalf("AliveCount = %d, want 4", l.AliveCount())
	}
	if l.Alive(2) || !l.Alive(3) {
		t.Fatal("alive flags wrong")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	fns := randFuncs(rand.New(rand.NewSource(4)), 5, 3)
	l, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top1(l, vec.Point{0.5})
}

// The tight threshold must (a) never exceed the naive threshold, and
// (b) upper-bound every feasible normalised function under the ceilings.
func TestTightBoundProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		d := 2 + rng.Intn(5)
		o := randObj(rng, d)
		last := make(vec.Point, d)
		for i := range last {
			last[i] = rng.Float64()
		}
		tight := TightBound(last, o)
		naive := 0.0
		for i := range o {
			naive += last[i] * o[i]
		}
		if tight > naive+1e-12 {
			t.Fatalf("tight %v exceeds naive %v", tight, naive)
		}
		// Sample feasible weight vectors: α ≤ last component-wise, Σα = 1.
		sumLast := 0.0
		for _, v := range last {
			sumLast += v
		}
		if sumLast < 1 {
			continue // no feasible normalised function exists
		}
		for s := 0; s < 10; s++ {
			// Rejection-sample a feasible α via scaled Dirichlet; give up
			// quickly when the feasible region is tiny.
			alpha := make(vec.Point, d)
			feasible := false
			for attempt := 0; attempt < 50 && !feasible; attempt++ {
				tot := 0.0
				for i := range alpha {
					alpha[i] = rng.ExpFloat64()
					tot += alpha[i]
				}
				feasible = true
				for i := range alpha {
					alpha[i] /= tot
					if alpha[i] > last[i] {
						feasible = false
					}
				}
			}
			if !feasible {
				break
			}
			score := 0.0
			for i := range alpha {
				score += alpha[i] * o[i]
			}
			if score > tight+1e-9 {
				t.Fatalf("feasible function scores %v above tight bound %v (last=%v o=%v α=%v)", score, tight, last, o, alpha)
			}
		}
	}
}

// The tight bound is the exact fractional-knapsack optimum; compare with a
// brute-force LP solved by trying all orderings on tiny instances.
func TestTightBoundIsKnapsackOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for trial := 0; trial < 500; trial++ {
		o := randObj(rng, 3)
		last := vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		want := 0.0
		for _, perm := range perms {
			b := 1.0
			v := 0.0
			for _, dim := range perm {
				beta := math.Min(b, last[dim])
				v += beta * o[dim]
				b -= beta
			}
			if v > want {
				want = v
			}
		}
		if got := TightBound(last, o); math.Abs(got-want) > 1e-12 {
			t.Fatalf("TightBound = %v, brute max = %v (last=%v o=%v)", got, want, last, o)
		}
	}
}

// The paper's claim: the tight threshold stops the scan earlier, i.e. the
// TA consumes fewer list entries.
func TestTightThresholdStopsEarlier(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fns := randFuncs(rng, 2000, 4)
	objs := make([]vec.Point, 50)
	for i := range objs {
		objs[i] = randObj(rng, 4)
	}
	run := func(tight bool) int64 {
		c := &stats.Counters{}
		l, err := NewLists(fns, c)
		if err != nil {
			t.Fatal(err)
		}
		l.TightThreshold = tight
		for _, o := range objs {
			top1(l, o)
		}
		return c.TAListAccesses
	}
	tightAcc := run(true)
	naiveAcc := run(false)
	t.Logf("list accesses: tight=%d naive=%d", tightAcc, naiveAcc)
	if tightAcc > naiveAcc {
		t.Fatalf("tight threshold consumed more entries (%d) than naive (%d)", tightAcc, naiveAcc)
	}
	if tightAcc*2 > naiveAcc {
		t.Logf("warning: tight threshold saved less than 2x (%d vs %d)", tightAcc, naiveAcc)
	}
}

// Both threshold variants must return identical winners.
func TestThresholdVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fns := randFuncs(rng, 400, 3)
	lt, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln.TightThreshold = false
	for trial := 0; trial < 200; trial++ {
		o := randObj(rng, 3)
		ti, ts, _ := top1(lt, o)
		ni, ns, _ := top1(ln, o)
		if ti != ni || math.Abs(ts-ns) > 1e-12 {
			t.Fatalf("trial %d: tight f%d (%v) vs naive f%d (%v)", trial, ti, ts, ni, ns)
		}
	}
}

func TestTieBreakBySmallestFunctionID(t *testing.T) {
	// Two identical functions: the smaller ID must win.
	fns := []prefs.Function{
		prefs.MustFunction(7, []float64{0.5, 0.5}),
		prefs.MustFunction(3, []float64{0.5, 0.5}),
		prefs.MustFunction(9, []float64{0.9, 0.1}),
	}
	l, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := vec.Point{0.5, 0.5} // all three score 0.5
	idx, score, ok := top1(l, o)
	if !ok || score != 0.5 {
		t.Fatalf("score = %v ok=%v", score, ok)
	}
	if fns[idx].ID != 3 {
		t.Fatalf("winner ID = %d, want 3", fns[idx].ID)
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := &stats.Counters{}
	fns := randFuncs(rand.New(rand.NewSource(9)), 100, 3)
	l, err := NewLists(fns, c)
	if err != nil {
		t.Fatal(err)
	}
	top1(l, vec.Point{0.3, 0.6, 0.1})
	if c.TAListAccesses == 0 || c.ScoreEvals == 0 {
		t.Fatalf("counters not incremented: %+v", c)
	}
	// TA should not scan all 300 list positions for a single query on
	// well-spread data.
	if c.TAListAccesses >= int64(3*len(fns)) {
		t.Fatalf("TA consumed every list entry (%d); threshold never fired", c.TAListAccesses)
	}
}

func TestSingleFunction(t *testing.T) {
	fns := []prefs.Function{prefs.MustFunction(0, []float64{0.2, 0.8})}
	l, err := NewLists(fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, score, ok := top1(l, vec.Point{1, 0})
	if !ok || idx != 0 || math.Abs(score-0.2) > 1e-12 {
		t.Fatalf("got %d %v %v", idx, score, ok)
	}
}

// sortedAlive is the exhaustive reference for reverse top-m: every alive
// function, best first (score descending, then ID ascending).
func sortedAlive(fns []prefs.Function, alive func(int) bool, o vec.Point) []Hit {
	var all []Hit
	for i := range fns {
		if alive(i) {
			all = append(all, Hit{Idx: int32(i), Score: fns[i].Score(o)})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		return prefs.BetterFunc(all[a].Score, fns[all[a].Idx].ID, all[b].Score, fns[all[b].Idx].ID)
	})
	return all
}

// ReverseTopM returns exactly the first m alive functions of a brute-force
// sort, in its order, bit for bit, under random removals and for m above
// the alive count. Weights and coordinates are coarse, so scores tie often
// and function IDs decide the order; IDs run opposite to positions, so a
// position order would not pass.
func TestReverseTopMMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, d := range []int{2, 3, 4} {
		fns := make([]prefs.Function, 120)
		for i := range fns {
			w := make([]float64, d)
			for j := range w {
				w[j] = float64(rng.Intn(3))
			}
			w[rng.Intn(d)]++
			fns[i] = prefs.MustFunction(len(fns)-i, w)
		}
		for _, tight := range []bool{true, false} {
			l, err := NewLists(fns, nil)
			if err != nil {
				t.Fatal(err)
			}
			l.TightThreshold = tight
			for l.AliveCount() > 0 {
				o := make(vec.Point, d)
				for j := range o {
					o[j] = float64(rng.Intn(5)) / 4
				}
				want := sortedAlive(fns, l.Alive, o)
				for _, m := range []int{1, 2, 8, len(fns) + 1} {
					got := l.ReverseTopM(o, m, []Hit{{Idx: -1}})
					if got[0].Idx != -1 {
						t.Fatalf("d=%d m=%d: dst's existing entry overwritten", d, m)
					}
					got = got[1:]
					n := min(m, len(want))
					if len(got) != n {
						t.Fatalf("d=%d m=%d alive=%d: %d hits, want %d", d, m, l.AliveCount(), len(got), n)
					}
					for i := range got {
						if got[i].Idx != want[i].Idx || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("d=%d m=%d tight=%v alive=%d o=%v: hit %d is f%d (%v), want f%d (%v)",
								d, m, tight, l.AliveCount(), o, i, fns[got[i].Idx].ID, got[i].Score, fns[want[i].Idx].ID, want[i].Score)
						}
					}
				}
				// Remove the best and a random alive function, as the
				// matcher's waves do.
				if err := l.Remove(int(want[0].Idx)); err != nil {
					t.Fatal(err)
				}
				if len(want) > 1 {
					if err := l.Remove(int(want[1+rng.Intn(len(want)-1)].Idx)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := l.ReverseTopM(vec.Point(make([]float64, d)), 8, nil); len(got) != 0 {
				t.Fatalf("d=%d: %d hits from an empty function set", d, len(got))
			}
		}
	}
}

// With m = 1 the search is the paper's reverse top-1 access for access:
// on a fixed input with removals, the list accesses and score evaluations
// are the values ReverseTop1 recorded before the top-m search replaced it.
func TestReverseTopMOneKeepsTop1Counters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fns := randFuncs(rng, 1000, 4)
	for _, tc := range []struct {
		tight      bool
		ta, scores int64
	}{
		{true, 52760, 52171},
		{false, 262352, 198025},
	} {
		c := &stats.Counters{}
		l, err := NewLists(fns, c)
		if err != nil {
			t.Fatal(err)
		}
		l.TightThreshold = tc.tight
		orng := rand.New(rand.NewSource(13))
		for q := 0; q < 300; q++ {
			idx, _, _ := top1(l, randObj(orng, 4))
			if q%3 == 0 {
				if err := l.Remove(idx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c.TAListAccesses != tc.ta || c.ScoreEvals != tc.scores {
			t.Errorf("tight=%v: TAListAccesses=%d ScoreEvals=%d, want %d and %d", tc.tight, c.TAListAccesses, c.ScoreEvals, tc.ta, tc.scores)
		}
	}
}

// Offer keeps a best-first list of at most m hits after base, and leaves
// the entries before base alone.
func TestOffer(t *testing.T) {
	ids := []int{5, 3, 9, 1}
	dst := []Hit{{Idx: 2, Score: 7}}
	for _, h := range []Hit{{0, 0.5}, {1, 0.5}, {2, 0.9}, {3, 0.1}} {
		dst = Offer(dst, 1, 3, h, ids)
	}
	want := []Hit{{2, 7}, {2, 0.9}, {1, 0.5}, {0, 0.5}}
	if !slices.Equal(dst, want) {
		t.Fatalf("Offer built %v, want %v", dst, want)
	}
}
