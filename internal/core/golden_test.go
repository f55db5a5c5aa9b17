package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// goldenAnti builds the golden workload with its own generator, so the
// pinned values cannot drift with the dataset package: n objects near the
// anti-diagonal plane Σxᵢ ≈ d/2 (the large-skyline stress case) and m
// normalised linear functions.
func goldenAnti(n, m, d int, seed int64) ([]index.Item, []prefs.Function) {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, 0, n)
	for len(items) < n {
		v := 0.5 + rng.NormFloat64()*0.08
		p := make(vec.Point, d)
		mean := 0.0
		for j := range p {
			p[j] = rng.Float64() - 0.5
			mean += p[j]
		}
		mean /= float64(d)
		ok := true
		for j := range p {
			p[j] = v + (p[j]-mean)*0.9
			ok = ok && p[j] >= 0 && p[j] <= 1
		}
		if ok {
			items = append(items, index.Item{ID: index.ObjID(len(items)), Point: p})
		}
	}
	fns := make([]prefs.Function, m)
	for i := range fns {
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64() + 1e-3
		}
		fns[i] = prefs.MustFunction(i, w)
	}
	return items, fns
}

// pairDigest hashes a matching in emission order, scores included bit for
// bit.
func pairDigest(pairs []Pair) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, p := range pairs {
		for i, v := range [3]uint64{uint64(p.FuncID), uint64(p.ObjID), math.Float64bits(p.Score)} {
			for b := 0; b < 8; b++ {
				buf[i*8+b] = byte(v >> (8 * b))
			}
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSBGoldenCounters pins paged SB on a fixed anti-correlated workload:
// the emitted matching and every paper counter (I/O, TA list accesses,
// score evaluations, heap operations, peak skyline size) must stay exactly
// as recorded. Dominance checks are an implementation cost, not a paper
// counter: they may fall, never rise above the recorded value. A change to
// the skyline or TA inner loops that alters any pinned value has changed
// the algorithm, not just its speed.
func TestSBGoldenCounters(t *testing.T) {
	items, fns := goldenAnti(3000, 100, 3, 20090329)
	for _, tc := range []struct {
		name string
		opts Options
		// pinned
		digest                       uint64
		io, ta, scores, heap, skyMax int64
		maxDom                       int64
	}{
		{"plist", Options{}, 0x1c279d9477d88446, 90, 41973, 63548, 1302, 209, 196407},
		{"plist-naive", Options{DisableTightThreshold: true}, 0x1c279d9477d88446, 90, 93672, 101446, 1302, 209, 196407},
		{"retraverse", Options{SkylineMode: skyline.MaintainRetraverse}, 0x1c279d9477d88446, 2042, 41973, 63548, 12396, 209, 1862955},
		{"recompute", Options{SkylineMode: skyline.MaintainRecompute}, 0x1c279d9477d88446, 2042, 41973, 63548, 27078, 209, 987270},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &stats.Counters{}
			tree := buildTree(t, items, 3)
			tree.SetCounters(c)
			opts := tc.opts
			opts.Algorithm = AlgSB
			opts.Counters = c
			pairs, err := Match(tree, fns, &opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("digest=%#x io=%d ta=%d scores=%d heap=%d skymax=%d dom=%d", pairDigest(pairs), c.IOAccesses(), c.TAListAccesses, c.ScoreEvals, c.HeapOps, c.SkylineMaxSize, c.DominanceChecks)
			if len(pairs) != len(fns) {
				t.Fatalf("%d pairs, want %d", len(pairs), len(fns))
			}
			if got := pairDigest(pairs); got != tc.digest {
				t.Errorf("matching digest %#x, want %#x", got, tc.digest)
			}
			for _, f := range []struct {
				name      string
				got, want int64
			}{
				{"IOAccesses", c.IOAccesses(), tc.io},
				{"TAListAccesses", c.TAListAccesses, tc.ta},
				{"ScoreEvals", c.ScoreEvals, tc.scores},
				{"HeapOps", c.HeapOps, tc.heap},
				{"SkylineMaxSize", c.SkylineMaxSize, tc.skyMax},
			} {
				if f.got != f.want {
					t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
				}
			}
			if c.DominanceChecks > tc.maxDom {
				t.Errorf("DominanceChecks = %d, above the recorded %d", c.DominanceChecks, tc.maxDom)
			}
		})
	}
}

// TestMatcherGoldenCounters pins the other matchers on
// TestSBGoldenCounters' paged workload: Brute Force, its incremental
// ablation and Chain over the linear functions, and SB and Brute Force
// over mixed monotone preferences (linear, Cobb-Douglas and weighted
// minimum). The emitted matching and each work counter must stay exactly
// as recorded.
func TestMatcherGoldenCounters(t *testing.T) {
	items, fns := goldenAnti(3000, 100, 3, 20090329)
	gps := mixedPreferences(rand.New(rand.NewSource(20090329)), 100, 3)
	for _, tc := range []struct {
		name     string
		alg      Algorithm
		monotone bool
		// pinned
		digest                                        uint64
		io, top1, nodes, scores, heap, deletes, loops int64
	}{
		{"bruteforce", AlgBruteForce, false, 0xbc51a8a3bbb57ff2, 2695, 587, 2171, 118301, 6622, 100, 100},
		{"bruteforce-inc", AlgBruteForceIncremental, false, 0xbc51a8a3bbb57ff2, 2287, 100, 2517, 29235, 33296, 0, 100},
		{"chain", AlgChain, false, 0x3173fff2f5a2750a, 3506, 292, 2971, 37325, 18511, 100, 192},
		{"monotone-sb", AlgSB, true, 0x9b74b2a39572249a, 89, 0, 0, 148493, 1240, 0, 27},
		{"monotone-bruteforce", AlgBruteForce, true, 0xdadd03e241dee62e, 2097, 435, 1595, 81536, 5672, 100, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &stats.Counters{}
			tree := buildTree(t, items, 3)
			tree.SetCounters(c)
			opts := &Options{Algorithm: tc.alg, Counters: c}
			var (
				pairs []Pair
				err   error
			)
			if tc.monotone {
				pairs, err = MatchGeneric(tree, gps, opts)
			} else {
				pairs, err = Match(tree, fns, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("digest=%#x io=%d top1=%d nodes=%d scores=%d heap=%d deletes=%d loops=%d", pairDigest(pairs), c.IOAccesses(), c.Top1Searches, c.NodesVisited, c.ScoreEvals, c.HeapOps, c.TreeDeletes, c.Loops)
			if len(pairs) != len(fns) {
				t.Fatalf("%d pairs, want %d", len(pairs), len(fns))
			}
			if got := pairDigest(pairs); got != tc.digest {
				t.Errorf("matching digest %#x, want %#x", got, tc.digest)
			}
			for _, f := range []struct {
				name      string
				got, want int64
			}{
				{"IOAccesses", c.IOAccesses(), tc.io},
				{"Top1Searches", c.Top1Searches, tc.top1},
				{"NodesVisited", c.NodesVisited, tc.nodes},
				{"ScoreEvals", c.ScoreEvals, tc.scores},
				{"HeapOps", c.HeapOps, tc.heap},
				{"TreeDeletes", c.TreeDeletes, tc.deletes},
				{"Loops", c.Loops, tc.loops},
			} {
				if f.got != f.want {
					t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
				}
			}
		})
	}
}
