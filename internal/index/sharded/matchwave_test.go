package sharded

import (
	"strings"
	"testing"

	"prefmatch/internal/core"
	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/stats"
)

var waveAlgs = []core.Algorithm{core.AlgSB, core.AlgBruteForce, core.AlgChain, core.AlgBruteForceIncremental}

// waveCaps gives every 10th object capacity 3, exercising the merge-point
// residual bookkeeping.
func waveCaps(items []index.Item) map[index.ObjID]int {
	caps := map[index.ObjID]int{}
	for i, it := range items {
		if i%10 == 0 {
			caps[it.ID] = 3
		}
	}
	return caps
}

// singleIndexPairs is the reference: the algorithm over one combined memory
// index (fresh per call — BruteForce and Chain consume it).
func singleIndexPairs(t *testing.T, items []index.Item, d int, alg core.Algorithm, caps map[index.ObjID]int, fns int, seed int64) []core.Pair {
	t.Helper()
	single, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := core.Match(single, dataset.Functions(fns, d, seed), &core.Options{
		Algorithm:  alg,
		Capacities: caps,
		Counters:   &stats.Counters{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestMatchWaveEquivalence is the cross-shard correctness bar of the
// shard-parallel matching wave: for shard counts {1, 2, 3, 7}, every
// partitioner, all four algorithms, with and without capacities, and for
// both a sequential and a parallel worker pool, MatchWave must emit the
// bit-identical pair stream (assignments, order, scores) of the same
// algorithm over one combined index — and its merged counters must not
// depend on the worker count.
func TestMatchWaveEquivalence(t *testing.T) {
	const (
		d    = 3
		nFns = 40
	)
	items := dataset.Clustered(600, d, 6, 41)
	caps := waveCaps(items)
	for _, withCaps := range []bool{false, true} {
		var c map[index.ObjID]int
		label := "cap1"
		if withCaps {
			c, label = caps, "capN"
		}
		for _, alg := range waveAlgs {
			want := singleIndexPairs(t, items, d, alg, c, nFns, 42)
			if len(want) == 0 {
				t.Fatalf("%s/%s: empty reference matching", alg, label)
			}
			for _, p := range []Partitioner{Spatial{}, Hash{}, RoundRobin{}} {
				for _, n := range []int{1, 2, 3, 7} {
					ix, err := Build(d, items, &Options{Shards: n, Partitioner: p})
					if err != nil {
						t.Fatal(err)
					}
					var ref *stats.Counters
					for _, workers := range []int{1, 4} {
						sink := &stats.Counters{}
						got, err := ix.MatchWave(dataset.Functions(nFns, d, 42), &core.Options{
							Algorithm:  alg,
							Capacities: c,
						}, workers, sink)
						if err != nil {
							t.Fatalf("%s/%s %s/%d w=%d: %v", alg, label, p.Name(), n, workers, err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s/%s %s/%d w=%d: %d pairs, want %d", alg, label, p.Name(), n, workers, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s/%s %s/%d w=%d: pair %d differs: %v vs %v",
									alg, label, p.Name(), n, workers, i, got[i], want[i])
							}
						}
						if ref == nil {
							ref = sink
						} else if *ref != *sink {
							t.Fatalf("%s/%s %s/%d: counters depend on the worker count:\nw=1: %v\nw=4: %v",
								alg, label, p.Name(), n, ref, sink)
						}
					}
				}
			}
		}
	}
}

// TestMatchWaveLeavesShardsIntact: unlike the single-index BruteForce and
// Chain (which consume their tree), the wave removes objects only
// logically, so the same composite serves wave after wave — and repeated
// waves give the identical answer.
func TestMatchWaveLeavesShardsIntact(t *testing.T) {
	const d = 2
	items := dataset.Independent(300, d, 43)
	ix, err := Build(d, items, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	fns := dataset.Functions(25, d, 44)
	for _, alg := range waveAlgs {
		first, err := ix.MatchWave(fns, &core.Options{Algorithm: alg}, 2, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if ix.Len() != len(items) {
			t.Fatalf("%v: wave consumed the composite (%d of %d objects left)", alg, ix.Len(), len(items))
		}
		second, err := ix.MatchWave(fns, &core.Options{Algorithm: alg}, 2, nil)
		if err != nil {
			t.Fatalf("%v second wave: %v", alg, err)
		}
		if len(first) != len(second) {
			t.Fatalf("%v: second wave emitted %d pairs, first %d", alg, len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%v: wave is not repeatable at pair %d", alg, i)
			}
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

// TestMatchWavePruning: on spatially tiled shards the candidate streams
// must skip whole shards whose MBR bound cannot reach a function's current
// best head, and the tally must land in the caller's sink.
func TestMatchWavePruning(t *testing.T) {
	const d = 2
	items := dataset.Clustered(2000, d, 8, 45)
	ix, err := Build(d, items, &Options{Shards: 8, Partitioner: Spatial{}})
	if err != nil {
		t.Fatal(err)
	}
	c := &stats.Counters{}
	if _, err := ix.MatchWave(dataset.Functions(15, d, 46), &core.Options{Algorithm: core.AlgBruteForce}, 2, c); err != nil {
		t.Fatal(err)
	}
	if c.ShardsPruned == 0 {
		t.Fatal("spatial shards never pruned a candidate stream")
	}
	if c.PairsEmitted != 15 {
		t.Fatalf("merged counters report %d pairs, want 15", c.PairsEmitted)
	}
}

// TestMatchWavePrunedCountsOnlyConsultedFunctions: ShardsPruned must count
// bound-vs-best-head decisions, not shards of functions the wave never
// asked about. A Chain wave with far more functions than objects exhausts
// the object set after a handful of matches; the dozens of never-consulted
// seed functions must not each report every shard as "pruned".
func TestMatchWavePrunedCountsOnlyConsultedFunctions(t *testing.T) {
	const (
		d      = 2
		nFns   = 60
		shards = 4
	)
	items := dataset.Independent(5, d, 52) // 5 capacity-1 objects for 60 functions
	ix, err := Build(d, items, &Options{Shards: shards, Partitioner: Spatial{}})
	if err != nil {
		t.Fatal(err)
	}
	c := &stats.Counters{}
	pairs, err := ix.MatchWave(dataset.Functions(nFns, d, 53), &core.Options{Algorithm: core.AlgChain}, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(items) {
		t.Fatalf("%d pairs for %d objects", len(pairs), len(items))
	}
	// The chain consults at most a few functions per emitted pair; counting
	// every unconsulted seed would report at least
	// (nFns - a few) * shards ≈ 200 pruned streams.
	if limit := int64(shards * 5 * len(pairs)); c.ShardsPruned > limit {
		t.Fatalf("ShardsPruned = %d (> %d): unconsulted functions counted as pruned", c.ShardsPruned, limit)
	}
}

// TestMatchWaveSnapshotError: paged shards cannot hand out read-only
// views; the wave must say so descriptively,
// naming index.Snapshotter and the offending shard — not fail generically.
func TestMatchWaveSnapshotError(t *testing.T) {
	items := dataset.Independent(120, 2, 47)
	pix, err := Build(2, items, &Options{Shards: 2, BuildShard: func(dim int, g []index.Item) (index.ObjectIndex, error) {
		return paged.Build(dim, g, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	fns := dataset.Functions(5, 2, 48)
	_, err = pix.MatchWave(fns, nil, 1, nil)
	if err == nil {
		t.Fatal("wave over paged shards accepted")
	}
	if !strings.Contains(err.Error(), "Snapshotter") || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("wave error does not name Snapshotter and the shard: %v", err)
	}
}

// TestMatchWaveValidation: the wave applies the same input validation as
// the single-index matchers.
func TestMatchWaveValidation(t *testing.T) {
	items := dataset.Independent(60, 2, 49)
	ix, err := Build(2, items, &Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.MatchWave(nil, nil, 1, nil); err == nil {
		t.Fatal("empty function set accepted")
	}
	if _, err := ix.MatchWave(dataset.Functions(5, 3, 50), nil, 1, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	fns := dataset.Functions(5, 2, 51)
	dup := append(fns[:0:0], fns...)
	dup[1].ID = dup[0].ID
	if _, err := ix.MatchWave(dup, nil, 1, nil); err == nil {
		t.Fatal("duplicate function IDs accepted")
	}
	if _, err := ix.MatchWave(fns, &core.Options{Capacities: map[index.ObjID]int{1: 0}}, 1, nil); err == nil {
		t.Fatal("capacity < 1 accepted")
	}
	if _, err := ix.MatchWave(fns, &core.Options{Algorithm: core.Algorithm(99)}, 1, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
