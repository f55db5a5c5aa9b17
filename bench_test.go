// Benchmarks reproducing every figure of the paper's evaluation (§ V), one
// family per panel, plus ablations for the design choices called out in
// DESIGN.md. Sizes are reduced so that `go test -bench=. -benchmem`
// completes in minutes; run `go run ./cmd/benchfig -full` for the
// paper-scale sweeps. Custom metrics:
//
//	io/op      physical page transfers per matching run (the paper's
//	           "I/O accesses" — the y-axis of Figs. 2(a), 2(b), 3(a))
//	top1/op    ranked searches issued per run
//	skymax     largest skyline encountered
//
// Wall time per op is the CPU panel (Figs. 2(c), 2(d), 3(b)).
package prefmatch_test

import (
	"fmt"
	"testing"

	"prefmatch"
	"prefmatch/internal/core"
	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/ta"
	"prefmatch/internal/topk"
)

const (
	benchObjectsFig2 = 10000
	benchFunctions   = 200
)

var benchAlgs = []core.Algorithm{core.AlgSB, core.AlgBruteForce, core.AlgChain}

// runMatch builds a fresh paged index (Brute Force and Chain consume it),
// then runs one full matching with counters attached.
func runMatch(b *testing.B, items []index.Item, fns []prefs.Function, d int, opts core.Options) *stats.Counters {
	b.Helper()
	c := &stats.Counters{}
	b.StopTimer()
	ix, err := paged.Build(d, items, &paged.Options{Counters: c})
	if err != nil {
		b.Fatal(err)
	}
	c.Reset()
	b.StartTimer()
	opts.Counters = c
	if _, err := core.Match(ix, fns, &opts); err != nil {
		b.Fatal(err)
	}
	return c
}

func reportCounters(b *testing.B, total *stats.Counters) {
	b.Helper()
	n := float64(b.N)
	b.ReportMetric(float64(total.IOAccesses())/n, "io/op")
	b.ReportMetric(float64(total.Top1Searches)/n, "top1/op")
	b.ReportMetric(float64(total.SkylineMaxSize), "skymax")
}

func benchFigure2(b *testing.B, anti bool) {
	gen := dataset.Independent
	if anti {
		gen = dataset.AntiCorrelated
	}
	for _, d := range []int{3, 4, 5, 6} {
		items := gen(benchObjectsFig2, d, int64(100+d))
		fns := dataset.Functions(benchFunctions, d, int64(200+d))
		for _, alg := range benchAlgs {
			b.Run(fmt.Sprintf("D=%d/%s", d, alg), func(b *testing.B) {
				total := &stats.Counters{}
				for i := 0; i < b.N; i++ {
					total.Add(runMatch(b, items, fns, d, core.Options{Algorithm: alg}))
				}
				reportCounters(b, total)
			})
		}
	}
}

// BenchmarkFig2aIndependentIO regenerates Figure 2(a) (and, through wall
// time, Figure 2(c)): independent objects, sweep over dimensionality.
func BenchmarkFig2aIndependentIO(b *testing.B) { benchFigure2(b, false) }

// BenchmarkFig2bAntiCorrelatedIO regenerates Figure 2(b) (and 2(d)):
// anti-correlated objects, sweep over dimensionality.
func BenchmarkFig2bAntiCorrelatedIO(b *testing.B) { benchFigure2(b, true) }

// BenchmarkFig3ZillowScaling regenerates Figure 3(a)/(b): the Zillow-like
// dataset, sweep over object cardinality.
func BenchmarkFig3ZillowScaling(b *testing.B) {
	for _, n := range []int{5000, 10000, 20000} {
		items := dataset.Zillow(n, 17)
		fns := dataset.Functions(benchFunctions, dataset.ZillowDim, 18)
		for _, alg := range benchAlgs {
			b.Run(fmt.Sprintf("O=%d/%s", n, alg), func(b *testing.B) {
				total := &stats.Counters{}
				for i := 0; i < b.N; i++ {
					total.Add(runMatch(b, items, fns, dataset.ZillowDim, core.Options{Algorithm: alg}))
				}
				reportCounters(b, total)
			})
		}
	}
}

// BenchmarkAblationMultiPair isolates § IV-C: emitting several stable pairs
// per loop versus one.
func BenchmarkAblationMultiPair(b *testing.B) {
	items := dataset.Independent(benchObjectsFig2, 3, 31)
	fns := dataset.Functions(benchFunctions, 3, 32)
	for _, disable := range []bool{false, true} {
		name := "multi"
		if disable {
			name = "single"
		}
		b.Run(name, func(b *testing.B) {
			total := &stats.Counters{}
			for i := 0; i < b.N; i++ {
				total.Add(runMatch(b, items, fns, 3, core.Options{Algorithm: core.AlgSB, DisableMultiPair: disable}))
			}
			reportCounters(b, total)
			b.ReportMetric(float64(total.Loops)/float64(b.N), "loops/op")
			b.ReportMetric(float64(total.SkylineUpdates)/float64(b.N), "skyupd/op")
		})
	}
}

// BenchmarkAblationTightThreshold isolates § IV-A: the tight TA threshold
// versus the naive one, measured in sorted-list accesses.
func BenchmarkAblationTightThreshold(b *testing.B) {
	items := dataset.Independent(benchObjectsFig2, 4, 33)
	fns := dataset.Functions(2000, 4, 34)
	for _, disable := range []bool{false, true} {
		name := "tight"
		if disable {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			total := &stats.Counters{}
			for i := 0; i < b.N; i++ {
				total.Add(runMatch(b, items, fns, 4, core.Options{Algorithm: core.AlgSB, DisableTightThreshold: disable}))
			}
			reportCounters(b, total)
			b.ReportMetric(float64(total.TAListAccesses)/float64(b.N), "ta-acc/op")
		})
	}
}

// BenchmarkAblationSkylineMaintenance isolates § IV-B: plist-based
// maintenance versus re-traversal versus full recomputation.
func BenchmarkAblationSkylineMaintenance(b *testing.B) {
	items := dataset.Independent(benchObjectsFig2, 3, 35)
	fns := dataset.Functions(benchFunctions, 3, 36)
	for _, mode := range []skyline.Mode{skyline.MaintainPlist, skyline.MaintainRetraverse, skyline.MaintainRecompute} {
		b.Run(mode.String(), func(b *testing.B) {
			total := &stats.Counters{}
			for i := 0; i < b.N; i++ {
				total.Add(runMatch(b, items, fns, 3, core.Options{Algorithm: core.AlgSB, SkylineMode: mode}))
			}
			reportCounters(b, total)
		})
	}
}

// BenchmarkAblationBufferSize shows the sensitivity of the I/O metric to
// the LRU buffer, for the buffer-bound Brute Force baseline.
func BenchmarkAblationBufferSize(b *testing.B) {
	items := dataset.Independent(benchObjectsFig2, 3, 37)
	fns := dataset.Functions(benchFunctions, 3, 38)
	for _, frac := range []float64{0.005, 0.02, 0.05, 0.2} {
		b.Run(fmt.Sprintf("buffer=%g", frac), func(b *testing.B) {
			total := &stats.Counters{}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := &stats.Counters{}
				ix, err := paged.Build(3, items, &paged.Options{Counters: c, BufferFraction: frac})
				if err != nil {
					b.Fatal(err)
				}
				c.Reset()
				b.StartTimer()
				if _, err := core.Match(ix, fns, &core.Options{Algorithm: core.AlgBruteForce, Counters: c}); err != nil {
					b.Fatal(err)
				}
				total.Add(c)
			}
			reportCounters(b, total)
		})
	}
}

// BenchmarkBackends compares the two storage backends on wall-clock time
// for the same workload and algorithm. The paged backend pays for node
// encode/decode, LRU bookkeeping and I/O accounting on every access; the
// memory backend reads nodes by pointer. The assignments produced are
// identical (asserted by the cross-backend equivalence tests in
// internal/core); what this benchmark tracks is the serving-path speedup.
func BenchmarkBackends(b *testing.B) {
	items := dataset.Independent(benchObjectsFig2, 4, 43)
	fns := dataset.Functions(benchFunctions, 4, 44)
	for _, alg := range []core.Algorithm{core.AlgSB, core.AlgBruteForce, core.AlgChain} {
		for _, backend := range []string{"paged", "mem"} {
			b.Run(fmt.Sprintf("%s/%s", alg, backend), func(b *testing.B) {
				total := &stats.Counters{}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := &stats.Counters{}
					var (
						ix  index.ObjectIndex
						err error
					)
					if backend == "mem" {
						ix, err = mem.Build(4, items, &mem.Options{Counters: c})
					} else {
						ix, err = paged.Build(4, items, &paged.Options{Counters: c})
					}
					if err != nil {
						b.Fatal(err)
					}
					c.Reset()
					b.StartTimer()
					if _, err := core.Match(ix, fns, &core.Options{Algorithm: alg, Counters: c}); err != nil {
						b.Fatal(err)
					}
					total.Add(c)
				}
				reportCounters(b, total)
			})
		}
	}
}

// BenchmarkAblationIncrementalBF compares classic Brute Force (restarted
// top-1 searches + tree deletions, § III-A) against the incremental-search
// variant, quantifying how much of the baseline's cost is re-search.
func BenchmarkAblationIncrementalBF(b *testing.B) {
	items := dataset.Independent(benchObjectsFig2, 3, 39)
	fns := dataset.Functions(benchFunctions, 3, 40)
	for _, alg := range []core.Algorithm{core.AlgBruteForce, core.AlgBruteForceIncremental} {
		b.Run(alg.String(), func(b *testing.B) {
			total := &stats.Counters{}
			for i := 0; i < b.N; i++ {
				total.Add(runMatch(b, items, fns, 3, core.Options{Algorithm: alg}))
			}
			reportCounters(b, total)
		})
	}
}

// BenchmarkServeTopK measures serving throughput: one shared memory index
// (prefmatch.Server) answers independent top-1 queries across worker
// counts, against the paged single-threaded baseline. The queries/s metric
// is the headline; >1 worker beating 1 worker is the point of the
// snapshot-based concurrency layer.
func BenchmarkServeTopK(b *testing.B) {
	const d = 4
	items := dataset.Independent(benchObjectsFig2, d, 51)
	fns := dataset.Functions(2000, d, 52)
	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	queries := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}
	srv, err := prefmatch.NewServer(objects, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := srv.TopKMany(queries, 1, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
	b.Run("paged-single-thread", func(b *testing.B) {
		c := &stats.Counters{}
		pix, err := paged.Build(d, items, &paged.Options{Counters: c})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				if _, err := topk.Search(pix, f, 1, c); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkServeTopKBatch is the shared-traversal headline: one server,
// batches of Q queries answered either per function (a TopK call per query:
// Q full descents) or batched (TopKManyAppend: one BatchSearcher walk per
// chunk, blocked scoring kernels). Both rows report queries/s and
// nodes/op — R-tree nodes expanded per query, from Stats().NodesVisited —
// so the F-fold sharing of the upper levels is visible in counters, not
// just wall clock. Batched must win qps at Q>=8, and the Q=16 batch must
// expand fewer than half the nodes of 16 independent searches (also pinned
// by internal/topk's TestBatchSharesNodeVisits).
func BenchmarkServeTopKBatch(b *testing.B) {
	const (
		d = 4
		k = 10
	)
	items := dataset.Independent(benchObjectsFig2, d, 51)
	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	allFns := dataset.Functions(64, d, 53)
	for _, q := range []int{1, 8, 16, 64} {
		queries := make([]prefmatch.Query, q)
		for i, f := range allFns[:q] {
			queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
		}
		newServer := func(b *testing.B) *prefmatch.Server {
			srv, err := prefmatch.NewServer(objects, nil)
			if err != nil {
				b.Fatal(err)
			}
			return srv
		}
		b.Run(fmt.Sprintf("q=%d/perfn", q), func(b *testing.B) {
			srv := newServer(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, query := range queries {
					if _, err := srv.TopK(query, k); err != nil {
						b.Fatal(err)
					}
				}
			}
			queriesRun := float64(q) * float64(b.N)
			b.ReportMetric(queriesRun/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(srv.Stats().NodesVisited)/queriesRun, "nodes/op")
		})
		b.Run(fmt.Sprintf("q=%d/batched", q), func(b *testing.B) {
			srv := newServer(b)
			var (
				dst     []prefmatch.Assignment
				offsets []int
				err     error
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, offsets, err = srv.TopKManyAppend(dst[:0], offsets[:0], queries, k); err != nil {
					b.Fatal(err)
				}
			}
			queriesRun := float64(q) * float64(b.N)
			b.ReportMetric(queriesRun/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(srv.Stats().NodesVisited)/queriesRun, "nodes/op")
		})
	}
}

// BenchmarkShardedTopK compares per-user top-k serving on the sharded
// composite against the unsharded memory server, on clustered data (the
// workload spatial partitioning is built for). The spatial rows additionally
// report pruned/op — whole shards skipped by MBR pruning per query; the
// hash rows cannot prune (every hash shard spans the whole space). Results
// are bit-identical across rows (enforced by the cross-shard equivalence
// tests).
func BenchmarkShardedTopK(b *testing.B) {
	const (
		d = 4
		k = 10
	)
	items := dataset.Clustered(benchObjectsFig2, d, 8, 61)
	fns := dataset.Functions(500, d, 62)
	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	queries := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}
	configs := []struct {
		name    string
		shards  int
		shardBy prefmatch.ShardBy
	}{
		{name: "unsharded"},
		{name: "spatial-2", shards: 2, shardBy: prefmatch.ShardSpatial},
		{name: "spatial-4", shards: 4, shardBy: prefmatch.ShardSpatial},
		{name: "spatial-8", shards: 8, shardBy: prefmatch.ShardSpatial},
		{name: "hash-4", shards: 4, shardBy: prefmatch.ShardHash},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			srv, err := prefmatch.NewServer(objects, &prefmatch.Options{Shards: cfg.shards, ShardBy: cfg.shardBy})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.TopKMany(queries, k, 1); err != nil {
					b.Fatal(err)
				}
			}
			queriesRun := float64(len(queries)) * float64(b.N)
			b.ReportMetric(queriesRun/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(srv.Stats().ShardsPruned)/queriesRun, "pruned/op")
		})
	}
}

// BenchmarkServeMatchWaves measures full-matching throughput: independent
// SB waves (each a complete stable matching of 50 queries against the full
// object set) fanned across workers over one shared memory index.
func BenchmarkServeMatchWaves(b *testing.B) {
	const (
		d        = 3
		waveSize = 50
		nWaves   = 8
	)
	items := dataset.Independent(benchObjectsFig2, d, 53)
	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	waves := make([][]prefmatch.Query, nWaves)
	for w := range waves {
		fns := dataset.Functions(waveSize, d, int64(54+w))
		qs := make([]prefmatch.Query, len(fns))
		for i, f := range fns {
			qs[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
		}
		waves[w] = qs
	}
	srv, err := prefmatch.NewServer(objects, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := srv.MatchMany(waves, nil, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nWaves)*float64(b.N)/b.Elapsed().Seconds(), "waves/s")
		})
	}
}

// BenchmarkShardedMatch measures SB waves served by MatchMany on clustered
// data, unsharded and over composites of several shard counts and
// partitioners. Every wave is one walk over a pooled composite snapshot;
// results are bit-identical across rows (enforced by the cross-shard
// equivalence tests).
func BenchmarkShardedMatch(b *testing.B) {
	const (
		d        = 3
		waveSize = 50
		nWaves   = 4
	)
	items := dataset.Clustered(benchObjectsFig2, d, 8, 63)
	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	waves := make([][]prefmatch.Query, nWaves)
	for w := range waves {
		fns := dataset.Functions(waveSize, d, int64(64+w))
		qs := make([]prefmatch.Query, len(fns))
		for i, f := range fns {
			qs[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
		}
		waves[w] = qs
	}
	configs := []struct {
		name    string
		shards  int
		shardBy prefmatch.ShardBy
	}{
		{name: "unsharded"},
		{name: "spatial-2", shards: 2, shardBy: prefmatch.ShardSpatial},
		{name: "spatial-4", shards: 4, shardBy: prefmatch.ShardSpatial},
		{name: "spatial-8", shards: 8, shardBy: prefmatch.ShardSpatial},
		{name: "hash-4", shards: 4, shardBy: prefmatch.ShardHash},
	}
	for _, cfg := range configs {
		b.Run("SB/"+cfg.name, func(b *testing.B) {
			srv, err := prefmatch.NewServer(objects, &prefmatch.Options{Shards: cfg.shards, ShardBy: cfg.shardBy})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.MatchMany(waves, nil, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nWaves)*float64(b.N)/b.Elapsed().Seconds(), "waves/s")
		})
	}
}

// BenchmarkComponents micro-benchmarks the load-bearing substrates.
func BenchmarkComponents(b *testing.B) {
	items := dataset.Independent(50000, 3, 41)
	fns := dataset.Functions(5000, 3, 42)

	b.Run("paged-bulkload-50k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, err := paged.New(3, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.BulkLoad(items); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("skyline-compute-50k", func(b *testing.B) {
		tree, err := paged.New(3, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(items); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := skyline.New(tree, skyline.MaintainPlist, nil)
			if err := m.Compute(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ta-reverse-top1-5k-funcs", func(b *testing.B) {
		c := &stats.Counters{}
		lists, err := ta.NewLists(fns, c)
		if err != nil {
			b.Fatal(err)
		}
		obj := items[0].Point
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lists.ReverseTop1(obj)
		}
	})
}
