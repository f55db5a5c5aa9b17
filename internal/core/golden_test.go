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
