package prefmatch

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// --- capacity (public API) ------------------------------------------------

func TestCapacitatedMatchPublic(t *testing.T) {
	objs := demoObjects(40, 3, 1)
	for i := range objs {
		if i%3 == 0 {
			objs[i].Capacity = 2 + i%2
		}
	}
	qs := demoQueries(90, 3, 2)
	res, err := Match(objs, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	totalCap := 0
	capByID := map[int]int{}
	for _, o := range objs {
		c := o.Capacity
		if c == 0 {
			c = 1
		}
		totalCap += c
		capByID[o.ID] = c
	}
	want := min(totalCap, len(qs))
	if len(res.Assignments) != want {
		t.Fatalf("%d assignments, want %d", len(res.Assignments), want)
	}
	used := map[int]int{}
	seenQ := map[int]bool{}
	for _, a := range res.Assignments {
		used[a.ObjectID]++
		if seenQ[a.QueryID] {
			t.Fatalf("query %d assigned twice", a.QueryID)
		}
		seenQ[a.QueryID] = true
	}
	for id, n := range used {
		if n > capByID[id] {
			t.Fatalf("object %d used %d times with capacity %d", id, n, capByID[id])
		}
	}
	// All three algorithms agree under capacities.
	byQuery := func(r *Result) map[int]int {
		m := map[int]int{}
		for _, a := range r.Assignments {
			m[a.QueryID] = a.ObjectID
		}
		return m
	}
	ref := byQuery(res)
	for _, alg := range []Algorithm{BruteForce, Chain} {
		other, err := Match(objs, qs, &Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := byQuery(other)
		if len(got) != len(ref) {
			t.Fatalf("%v: cardinality differs", alg)
		}
		for q, o := range ref {
			if got[q] != o {
				t.Fatalf("%v: query %d -> %d, SB -> %d", alg, q, got[q], o)
			}
		}
	}
}

func TestNegativeCapacityRejected(t *testing.T) {
	objs := demoObjects(5, 2, 3)
	objs[0].Capacity = -1
	if _, err := Match(objs, demoQueries(3, 2, 4), nil); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// --- monotone preferences (public API) -------------------------------------

// cobb is a Cobb-Douglas utility used as a custom Preference.
type cobb struct{ exps []float64 }

func (c cobb) Score(values []float64) float64 {
	s := 1.0
	for i, e := range c.exps {
		s *= math.Pow(values[i]+1e-9, e)
	}
	return s
}

// weakest is a weighted-minimum utility.
type weakest struct{ w []float64 }

func (m weakest) Score(values []float64) float64 {
	s := math.Inf(1)
	for i, w := range m.w {
		if v := w * values[i]; v < s {
			s = v
		}
	}
	return s
}

func monotoneQueries(rng *rand.Rand, n, d int) []PreferenceQuery {
	qs := make([]PreferenceQuery, n)
	for i := range qs {
		w := make([]float64, d)
		tot := 0.0
		for j := range w {
			w[j] = rng.Float64() + 0.05
			tot += w[j]
		}
		for j := range w {
			w[j] /= tot
		}
		var p Preference
		switch i % 3 {
		case 0:
			p = LinearPreference{Weights: w}
		case 1:
			p = cobb{exps: w}
		default:
			p = weakest{w: w}
		}
		qs[i] = PreferenceQuery{ID: i, Preference: p}
	}
	return qs
}

func TestMatchMonotoneAgainstBruteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := demoObjects(80, 3, 6)
	qs := monotoneQueries(rng, 25, 3)
	res, err := MatchMonotone(objs, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != len(qs) {
		t.Fatalf("%d assignments", len(res.Assignments))
	}

	// Exhaustive greedy reference directly over the public types, with the
	// library's tie-break order.
	better := func(s1, sum1, s2, sum2 float64, q1, q2, o1, o2 int) bool {
		if s1 != s2 {
			return s1 > s2
		}
		if sum1 != sum2 {
			return sum1 > sum2
		}
		if q1 != q2 {
			return q1 < q2
		}
		return o1 < o2
	}
	sum := func(o Object) float64 {
		t := 0.0
		for _, v := range o.Values {
			t += v
		}
		return t
	}
	aliveO := map[int]bool{}
	for _, o := range objs {
		aliveO[o.ID] = true
	}
	aliveQ := map[int]bool{}
	for _, q := range qs {
		aliveQ[q.ID] = true
	}
	var want []Assignment
	for len(want) < len(qs) {
		bestQ, bestO := -1, -1
		var bs, bsum float64
		for _, q := range qs {
			if !aliveQ[q.ID] {
				continue
			}
			for _, o := range objs {
				if !aliveO[o.ID] {
					continue
				}
				s := q.Preference.Score(o.Values)
				if bestQ == -1 || better(s, sum(o), bs, bsum, q.ID, bestQ, o.ID, bestO) {
					bestQ, bestO, bs, bsum = q.ID, o.ID, s, sum(o)
				}
			}
		}
		aliveQ[bestQ] = false
		aliveO[bestO] = false
		want = append(want, Assignment{QueryID: bestQ, ObjectID: bestO, Score: bs})
	}
	gotBy := map[int]int{}
	for _, a := range res.Assignments {
		gotBy[a.QueryID] = a.ObjectID
	}
	for _, w := range want {
		if gotBy[w.QueryID] != w.ObjectID {
			t.Fatalf("query %d -> %d, oracle -> %d", w.QueryID, gotBy[w.QueryID], w.ObjectID)
		}
	}
	// Brute Force agrees with SB for monotone preferences too.
	bf, err := MatchMonotone(objs, qs, &Options{Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range bf.Assignments {
		if gotBy[a.QueryID] != a.ObjectID {
			t.Fatalf("BF: query %d -> %d, SB -> %d", a.QueryID, a.ObjectID, gotBy[a.QueryID])
		}
	}
}

func TestMatchMonotoneValidation(t *testing.T) {
	objs := demoObjects(10, 2, 7)
	qs := monotoneQueries(rand.New(rand.NewSource(8)), 4, 2)
	if _, err := MatchMonotone(nil, qs, nil); err == nil {
		t.Fatal("no objects accepted")
	}
	if _, err := MatchMonotone(objs, nil, nil); err == nil {
		t.Fatal("no queries accepted")
	}
	if _, err := MatchMonotone(objs, []PreferenceQuery{{ID: 1}}, nil); err == nil {
		t.Fatal("nil preference accepted")
	}
	dup := []PreferenceQuery{
		{ID: 1, Preference: LinearPreference{Weights: []float64{1, 1}}},
		{ID: 1, Preference: LinearPreference{Weights: []float64{2, 1}}},
	}
	if _, err := MatchMonotone(objs, dup, nil); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := MatchMonotone(objs, qs, &Options{Algorithm: Chain}); err == nil {
		t.Fatal("Chain accepted for monotone preferences")
	}
}

// TestMatchMonotoneDynamicMerges runs MatchMonotone on a Dynamic index whose
// merge threshold is low enough that Brute Force's 2,000 deletions
// republish it about 250 times mid-run. Every algorithm that accepts
// monotone preferences must still return the Memory backend's matching: the
// matcher reads a pinned snapshot, so a merge cannot rotate the epoch under
// an in-flight search.
func TestMatchMonotoneDynamicMerges(t *testing.T) {
	objs := demoObjects(2000, 3, 11)
	rng := rand.New(rand.NewSource(12))
	qs := make([]PreferenceQuery, 2000)
	for i := range qs {
		w := make([]float64, 3)
		for j := range w {
			w[j] = rng.Float64() + 0.01
		}
		qs[i] = PreferenceQuery{ID: i, Preference: LinearPreference{Weights: w}}
	}
	want, err := MatchMonotone(objs, qs, &Options{Backend: Memory})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SkylineBased, BruteForce, BruteForceIncremental} {
		got, err := MatchMonotone(objs, qs, &Options{Algorithm: alg, Backend: Dynamic, MergeThreshold: 8})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if matchingKey(got.Assignments) != matchingKey(want.Assignments) {
			t.Fatalf("%v: Dynamic matching differs from Memory's", alg)
		}
	}
}

// TestMatchDynamicShardsMerges is the composite's case: Brute Force's and
// Chain's deletions republish Dynamic shards mid-run, so the one-shot
// matchers must read a pinned composite snapshot too.
func TestMatchDynamicShardsMerges(t *testing.T) {
	objs := demoObjects(2000, 3, 11)
	qs := demoQueries(2000, 3, 12)
	want, err := Match(objs, qs, &Options{Backend: Memory})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{BruteForce, Chain} {
		got, err := Match(objs, qs, &Options{Algorithm: alg, Backend: Dynamic, Shards: 3, MergeThreshold: 8})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if matchingKey(got.Assignments) != matchingKey(want.Assignments) {
			t.Fatalf("%v: sharded Dynamic matching differs from Memory's", alg)
		}
	}
}

func TestMatchMonotoneWithCapacities(t *testing.T) {
	withCap := demoObjects(6, 2, 9)
	withCap[0].Capacity = 4
	qs := monotoneQueries(rand.New(rand.NewSource(10)), 9, 2)
	res, err := MatchMonotone(withCap, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 9 {
		t.Fatalf("%d assignments, want 9 (5 singles + capacity-4 object)", len(res.Assignments))
	}
	used := map[int]int{}
	for _, a := range res.Assignments {
		used[a.ObjectID]++
	}
	if used[withCap[0].ID] != 4 {
		t.Fatalf("capacity-4 object used %d times", used[withCap[0].ID])
	}
	for _, o := range withCap[1:] {
		if used[o.ID] > 1 {
			t.Fatalf("object %d over-used", o.ID)
		}
	}
	// Brute Force agrees.
	bf, err := MatchMonotone(withCap, qs, &Options{Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	m := map[int]int{}
	for _, a := range res.Assignments {
		m[a.QueryID] = a.ObjectID
	}
	for _, a := range bf.Assignments {
		if m[a.QueryID] != a.ObjectID {
			t.Fatalf("BF capacitated monotone: query %d -> %d, SB -> %d", a.QueryID, a.ObjectID, m[a.QueryID])
		}
	}
}

// --- skyline / top-k helpers ------------------------------------------------

func TestSkylineHelper(t *testing.T) {
	objs := []Object{
		{ID: 1, Values: []float64{0.9, 0.9}},
		{ID: 2, Values: []float64{0.5, 0.5}}, // dominated by 1
		{ID: 3, Values: []float64{1.0, 0.1}},
		{ID: 4, Values: []float64{0.1, 1.0}},
		{ID: 5, Values: []float64{0.9, 0.9}}, // duplicate of 1: both survive
	}
	got, err := Skyline(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("skyline = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("skyline = %v, want %v", got, want)
		}
	}
	empty, err := Skyline(nil, nil)
	if err != nil || empty != nil {
		t.Fatalf("empty skyline: %v %v", empty, err)
	}
}

func TestSkylineMatchesBruteForce(t *testing.T) {
	objs := demoObjects(500, 3, 10)
	got, err := Skyline(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, a := range objs {
		dominated := false
		for j, b := range objs {
			if i != j && Dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			want = append(want, a.ID)
		}
	}
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("skyline size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("skyline[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTopKHelper(t *testing.T) {
	objs := demoObjects(300, 3, 11)
	q := Query{ID: 7, Weights: []float64{0.2, 0.5, 0.3}}
	got, err := TopK(objs, q, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results", len(got))
	}
	// Verify descending order and agreement with a scan.
	score := func(o Object) float64 {
		return 0.2*o.Values[0] + 0.5*o.Values[1] + 0.3*o.Values[2]
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score+1e-12 {
			t.Fatal("results not in descending score order")
		}
	}
	best := objs[0]
	for _, o := range objs[1:] {
		if score(o) > score(best) {
			best = o
		}
	}
	if got[0].ObjectID != best.ID {
		t.Fatalf("top-1 = %d, scan best = %d", got[0].ObjectID, best.ID)
	}
	// k larger than the set.
	all, err := TopK(objs[:5], q, 100, nil)
	if err != nil || len(all) != 5 {
		t.Fatalf("k>n: %d results, err %v", len(all), err)
	}
	// Edge cases.
	if _, err := TopK(objs, q, -1, nil); err == nil {
		t.Fatal("negative k accepted")
	}
	none, err := TopK(objs, q, 0, nil)
	if err != nil || none != nil {
		t.Fatalf("k=0: %v %v", none, err)
	}
	if _, err := TopK(objs, Query{ID: 1, Weights: []float64{1}}, 3, nil); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
}

func TestTopKMonotoneHelper(t *testing.T) {
	objs := demoObjects(200, 3, 12)
	pq := PreferenceQuery{ID: 3, Preference: weakest{w: []float64{1, 1, 1}}}
	got, err := TopKMonotone(objs, pq, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	best := objs[0]
	bestScore := pq.Preference.Score(best.Values)
	for _, o := range objs[1:] {
		if s := pq.Preference.Score(o.Values); s > bestScore {
			best, bestScore = o, s
		}
	}
	if got[0].ObjectID != best.ID {
		t.Fatalf("top-1 = %d, scan best = %d", got[0].ObjectID, best.ID)
	}
	if _, err := TopKMonotone(objs, PreferenceQuery{ID: 1}, 3, nil); err == nil {
		t.Fatal("nil preference accepted")
	}
}

// TestTopKHugeK is the regression test for the package-level top-k sizing
// its output by the caller's k: TopK(objs, q, 1<<40, nil) died with "fatal
// error: runtime: out of memory", which no recover can catch. A k past the
// object count must return every object, exactly as k = len(objs) does.
func TestTopKHugeK(t *testing.T) {
	objs := demoObjects(50, 3, 13)
	q := Query{ID: 4, Weights: []float64{1, 2, 3}}
	pq := PreferenceQuery{ID: 5, Preference: weakest{w: []float64{1, 1, 1}}}
	wantLin, err := TopK(objs, q, len(objs), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMono, err := TopKMonotone(objs, pq, len(objs), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1 << 40, math.MaxInt} {
		got, err := TopK(objs, q, k, nil)
		if err != nil {
			t.Fatalf("TopK k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got, wantLin) {
			t.Fatalf("TopK k=%d: %d rows, want the %d of k=len(objs)", k, len(got), len(wantLin))
		}
		got, err = TopKMonotone(objs, pq, k, nil)
		if err != nil {
			t.Fatalf("TopKMonotone k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got, wantMono) {
			t.Fatalf("TopKMonotone k=%d: %d rows, want the %d of k=len(objs)", k, len(got), len(wantMono))
		}
	}
}

func TestDominatesHelper(t *testing.T) {
	a := Object{ID: 1, Values: []float64{1, 1}}
	b := Object{ID: 2, Values: []float64{0.5, 1}}
	if !Dominates(a, b) || Dominates(b, a) {
		t.Fatal("dominance wrong")
	}
	if Dominates(a, a) {
		t.Fatal("self-dominance")
	}
	if Dominates(a, Object{ID: 3, Values: []float64{1}}) {
		t.Fatal("dimension mismatch must be false")
	}
}
