// Black-box equivalence suite for the batched shared-traversal searcher: on
// every backend — memory snapshot (flat fast path), paged (generic nodes),
// sharded composite snapshot (synthetic root + forwarded flat payloads) — a
// batch of Q functions with mixed k values must be bit-identical (IDs, order,
// scores, points) to Q independent resumable Searchers drained k deep,
// including batches wider than the 64 functions one traversal serves. Lives outside package
// topk because importing the sharded backend from an in-package test would
// cycle (sharded itself builds on topk).
package topk_test

import (
	"math/rand"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// equivItems generates coarse-grid points so score ties are frequent and the
// sum/ID tie-breaks are genuinely exercised.
func equivItems(n, d int, seed int64) []index.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(20)) / 19
		}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	return items
}

func TestBatchMatchesIndependentSearchesAllBackends(t *testing.T) {
	const (
		n = 2500
		d = 4
	)
	items := equivItems(n, d, 21)
	backends := []struct {
		name  string
		build func(t *testing.T) index.ObjectIndex
	}{
		{"mem", func(t *testing.T) index.ObjectIndex {
			ix, err := mem.Build(d, items, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ix.Snapshot()
		}},
		{"paged", func(t *testing.T) index.ObjectIndex {
			tr, err := paged.New(d, &paged.Options{PageSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"sharded", func(t *testing.T) index.ObjectIndex {
			ix, err := sharded.Build(d, items, &sharded.Options{Shards: 5})
			if err != nil {
				t.Fatal(err)
			}
			return ix.Snapshot()
		}},
	}
	mixedKs := []int{3, 1, 10, 0, 25}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ix := be.build(t)
			rng := rand.New(rand.NewSource(22))
			for _, q := range []int{1, 3, 16, 64, 65, 130} {
				fns := make([]prefs.Preference, q)
				ks := make([]int, q)
				for i := range fns {
					w := make([]float64, d)
					for j := range w {
						// Coarse weights provoke exact score ties.
						w[j] = float64(rng.Intn(4))
					}
					w[rng.Intn(d)]++
					fns[i] = prefs.MustFunction(i, w)
					ks[i] = mixedKs[i%len(mixedKs)]
				}
				c := &stats.Counters{}
				b := topk.AcquireBatchSearcher(ix, fns, ks, c)
				if err := b.Run(); err != nil {
					t.Fatal(err)
				}
				got := make([][]topk.Result, q)
				for f := 0; f < q; f++ {
					got[f] = b.AppendResults(f, nil)
				}
				b.Release()
				for f := 0; f < q; f++ {
					want := drain(t, ix, fns[f], ks[f])
					if len(got[f]) != len(want) {
						t.Fatalf("q=%d fn %d (k=%d): batch returned %d results, independent %d",
							q, f, ks[f], len(got[f]), len(want))
					}
					for i := range want {
						if got[f][i].ID != want[i].ID || got[f][i].Score != want[i].Score ||
							!got[f][i].Point.Equal(want[i].Point) {
							t.Fatalf("q=%d fn %d rank %d: batch %+v != independent %+v",
								q, f, i, got[f][i], want[i])
						}
					}
				}
				if c.NodesVisited == 0 && q > 0 {
					t.Fatal("batch read no nodes")
				}
			}
		})
	}
}

// drain is the resumable engine's answer to a top-k query: a Searcher
// drained k deep (fewer when the tree runs dry).
func drain(t *testing.T, ix index.ObjectIndex, pref prefs.Preference, k int) []topk.Result {
	t.Helper()
	s := topk.NewSearcher()
	s.Reset(ix, pref, &stats.Counters{})
	var out []topk.Result
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

// TestBatchEmptyTree: a batch over an empty tree terminates with empty
// per-function results.
func TestBatchEmptyTree(t *testing.T) {
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fns := []prefs.Preference{prefs.MustFunction(0, []float64{1, 1})}
	b := topk.AcquireBatchSearcher(tr, fns, []int{3}, &stats.Counters{})
	defer b.Release()
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Len(0) != 0 {
		t.Fatalf("empty tree returned %d results", b.Len(0))
	}
}
