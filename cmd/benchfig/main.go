// Command benchfig regenerates every figure of the paper's evaluation
// (§ V): Figure 2(a)-(d) — I/O and CPU versus dimensionality on independent
// and anti-correlated data — and Figure 3(a)-(b) — I/O and CPU versus
// object cardinality on the Zillow-like dataset. One run of an experiment
// produces both the I/O panel and the CPU panel.
//
//	go run ./cmd/benchfig                  # all experiments, reduced scale
//	go run ./cmd/benchfig -fig 2a          # one panel (its experiment runs once)
//	go run ./cmd/benchfig -full            # paper-scale parameters (slow!)
//	go run ./cmd/benchfig -algs sb,bf      # subset of algorithms
//	go run ./cmd/benchfig -backends paged  # paper mode only (skip the memory rows)
//	go run ./cmd/benchfig -serve           # serving throughput vs worker count
//	go run ./cmd/benchfig -sharded         # sharded vs unsharded serving
//	go run ./cmd/benchfig -batch           # batched shared-traversal vs per-query serving
//	go run ./cmd/benchfig -alloc           # steady-state serving allocs/op and B/op
//	go run ./cmd/benchfig -churn           # mixed read/write serving: qps and p99 under live mutation
//	go run ./cmd/benchfig -sessions        # preference sessions: cold vs cached vs requalified throughput
//
// -serve runs the concurrency experiment instead of the paper figures: one
// shared in-memory index (prefmatch.Server) answers independent top-1
// queries and full matching waves across 1..8 worker goroutines, against a
// single-threaded paged baseline. The columns are throughput (queries/sec,
// waves/sec); the point is the scaling curve, which the paper's
// single-threaded setup cannot show.
//
// -churn runs the live-mutation experiment: a dynamic-backend server answers
// top-k reads while a fraction of operations are in-place Updates (delete +
// reinsert through the delta tier), across write rates {0%, 1%, 10%} and
// merge thresholds {256, 4096}, against a static memory-backend baseline.
// The columns are read throughput, p50/p99 read latency, and merges
// completed — the claim under test is that reads at a 1% write rate stay
// within 25% of the static baseline while background merges rotate epochs.
//
// -sessions runs the preference-session experiment: one session per nudge
// magnitude {0%, 1%, 10%} against a cold per-call Server.TopK baseline, on a
// separated dataset (a dominant head with real rank gaps — the regime
// incremental re-evaluation is built for). The columns are throughput and
// the hit/requalified/fallback split of the session's answers, read from the
// server's own pm_rescache_* counters; the claim under test is that a
// re-qualified 1% nudge serves at least 5x the cold walk.
//
// -sharded runs the sharded-composite experiment: the same clustered object
// set served unsharded and split across 2/4/8 shards by the spatial and
// hash partitioners, answering per-user top-k queries and SB matching
// waves. The columns are throughput plus the whole shards skipped by MBR
// pruning — the spatial rows prune, the hash rows cannot, and every
// configuration returns bit-identical results (enforced by the equivalence
// tests; re-checked here on a sample).
//
// Every algorithm runs on both storage backends by default: "paged" is the
// paper-faithful disk simulation whose I/O panel reproduces the figures, and
// "mem" is the in-memory serving backend (always zero I/O — its CPU column
// tracks the serving-path wall-clock trajectory across snapshots).
//
// Reduced scale keeps every curve's shape while finishing in minutes;
// -full uses the paper's |O| = 100K (up to 400K for Fig. 3) and |F| = 5000.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"prefmatch"
	"prefmatch/internal/core"
	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// benchSnapshot names the latest committed snapshot of the bench
// trajectory; every mode's output header points at it so a table can be
// compared against the recorded numbers without digging through git.
const benchSnapshot = "BENCH_4.json"

type scale struct {
	objectsFig2 int
	functions   int
	dims        []int
	objectsFig3 []int
}

var (
	smallScale = scale{
		objectsFig2: 20000,
		functions:   500,
		dims:        []int{3, 4, 5, 6},
		objectsFig3: []int{5000, 10000, 20000, 40000},
	}
	fullScale = scale{
		objectsFig2: 100000,
		functions:   5000,
		dims:        []int{3, 4, 5, 6},
		objectsFig3: []int{10000, 50000, 100000, 200000, 400000},
	}
)

type cell struct {
	io     int64
	cpu    time.Duration
	top1   int64
	skyMax int64
	loops  int64
}

// combo is one plotted curve: an algorithm on a storage backend.
type combo struct {
	alg     core.Algorithm
	backend string // "paged" | "mem"
}

func (c combo) String() string { return fmt.Sprintf("%s/%s", c.alg, c.backend) }

type experiment struct {
	name    string   // e.g. "fig2-independent"
	panels  []string // e.g. ["2a (I/O)", "2c (CPU)"]
	xLabel  string
	xValues []int
	run     func(x int, cb combo) cell
}

func main() {
	fig := flag.String("fig", "all", "2a | 2b | 2c | 2d | 3a | 3b | all")
	full := flag.Bool("full", false, "paper-scale parameters (slow: tens of minutes)")
	algsFlag := flag.String("algs", "sb,bf,chain", "comma-separated subset of sb,bf,chain")
	backendsFlag := flag.String("backends", "paged,mem", "comma-separated subset of paged,mem")
	serve := flag.Bool("serve", false, "run the serving-throughput experiment instead of the paper figures")
	shardedExp := flag.Bool("sharded", false, "run the sharded vs unsharded serving experiment instead of the paper figures")
	batch := flag.Bool("batch", false, "run the batched shared-traversal experiment: TopKManyAppend batches vs per-query TopK, with nodes/query")
	alloc := flag.Bool("alloc", false, "run the allocation experiment: steady-state serving ns/op, B/op and allocs/op")
	check := flag.Bool("check", false, "with -alloc: exit non-zero if a pooled steady-state path reports > 0 allocs/op (the CI regression gate)")
	sessions := flag.Bool("sessions", false, "run the preference-session experiment: cold vs cached vs requalified top-k throughput across nudge magnitudes")
	churn := flag.Bool("churn", false, "run the live-mutation experiment: read qps and p50/p99 under mixed read/write workloads on the dynamic backend")
	churnOps := flag.Int("churnops", 30000, "with -churn: operations per configuration (the CI smoke uses a small count)")
	admin := flag.String("admin", "", "with -serve or -churn: expose the admin endpoints (/metrics, /statsz, /healthz, /debug/pprof) on this address while the experiment runs")
	seed := flag.Int64("seed", 2009, "dataset seed")
	flag.Parse()

	sc := smallScale
	label := "reduced scale"
	if *full {
		sc = fullScale
		label = "paper scale"
	}

	if *serve {
		runServing(sc, *seed, *admin)
		return
	}
	if *shardedExp {
		runSharded(sc, *seed)
		return
	}
	if *batch {
		runBatch(sc, *seed)
		return
	}
	if *alloc {
		runAlloc(sc, *seed, *check)
		return
	}
	if *sessions {
		runSessions(sc, *seed)
		return
	}
	if *churn {
		runChurn(sc, *seed, *churnOps, *admin)
		return
	}

	var algs []core.Algorithm
	for _, a := range strings.Split(*algsFlag, ",") {
		switch strings.TrimSpace(a) {
		case "sb":
			algs = append(algs, core.AlgSB)
		case "bf":
			algs = append(algs, core.AlgBruteForce)
		case "chain":
			algs = append(algs, core.AlgChain)
		case "":
		default:
			fmt.Fprintf(os.Stderr, "benchfig: unknown algorithm %q\n", a)
			os.Exit(2)
		}
	}
	if len(algs) == 0 {
		fmt.Fprintln(os.Stderr, "benchfig: no algorithms selected")
		os.Exit(2)
	}

	var backends []string
	for _, b := range strings.Split(*backendsFlag, ",") {
		switch strings.TrimSpace(b) {
		case "paged", "mem":
			backends = append(backends, strings.TrimSpace(b))
		case "":
		default:
			fmt.Fprintf(os.Stderr, "benchfig: unknown backend %q\n", b)
			os.Exit(2)
		}
	}
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "benchfig: no backends selected")
		os.Exit(2)
	}

	var combos []combo
	for _, b := range backends {
		for _, a := range algs {
			combos = append(combos, combo{alg: a, backend: b})
		}
	}

	experiments := buildExperiments(sc, *seed)
	want := map[string]bool{}
	switch *fig {
	case "all":
		want["fig2-independent"] = true
		want["fig2-anticorrelated"] = true
		want["fig3-zillow"] = true
	case "2a", "2c":
		want["fig2-independent"] = true
	case "2b", "2d":
		want["fig2-anticorrelated"] = true
	case "3a", "3b":
		want["fig3-zillow"] = true
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	fmt.Printf("benchfig: %s — |F| = %d (bench trajectory: %s)\n", label, sc.functions, benchSnapshot)
	for _, ex := range experiments {
		if !want[ex.name] {
			continue
		}
		runExperiment(ex, combos)
	}
}

// runServing measures serving throughput on one shared in-memory index:
// independent top-1 queries and full SB matching waves fanned across worker
// goroutines, with a single-threaded paged run as the baseline. SB never
// mutates the object index, so every worker traverses a read-only snapshot
// of the same tree.
func runServing(sc scale, seed int64, adminAddr string) {
	const d = 4
	nObjects := sc.objectsFig2
	nQueries := 4 * sc.functions
	items := dataset.Independent(nObjects, d, seed)
	fns := dataset.Functions(nQueries, d, seed+1)

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
		panic(err)
	}
	if adminAddr != "" {
		bound, err := srv.ServeAdmin(adminAddr)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		fmt.Printf("benchfig: admin endpoints on http://%s\n", bound)
	}

	fmt.Printf("benchfig: serving throughput — |O| = %d, |Q| = %d, D = %d (bench trajectory: %s)\n", nObjects, nQueries, d, benchSnapshot)

	fmt.Println("\n== Top-1 queries/sec vs workers (mem Server) ==")
	fmt.Printf("%-10s %14s %14s\n", "workers", "elapsed", "queries/s")
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		if _, err := srv.TopKMany(queries, 1, w); err != nil {
			panic(err)
		}
		el := time.Since(start)
		fmt.Printf("%-10d %14v %14.0f\n", w, el.Round(time.Millisecond), float64(nQueries)/el.Seconds())
	}
	// Baseline: the same queries answered sequentially against the paged
	// backend, which cannot be shared across goroutines (its LRU buffer
	// mutates on every read).
	c := &stats.Counters{}
	pix, err := paged.Build(d, items, &paged.Options{Counters: c})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for _, f := range fns {
		if _, err := topk.Search(pix, f, 1, c); err != nil {
			panic(err)
		}
	}
	el := time.Since(start)
	fmt.Printf("%-10s %14v %14.0f\n", "paged(1)", el.Round(time.Millisecond), float64(nQueries)/el.Seconds())

	fmt.Println("\n== SB matching waves/sec vs workers (mem Server) ==")
	const waveSize = 50
	var waves [][]prefmatch.Query
	for i := 0; i+waveSize <= len(queries); i += waveSize {
		waves = append(waves, queries[i:i+waveSize])
	}
	fmt.Printf("%-10s %14s %14s\n", "workers", "elapsed", "waves/s")
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		if _, err := srv.MatchMany(waves, nil, w); err != nil {
			panic(err)
		}
		el := time.Since(start)
		fmt.Printf("%-10d %14v %14.2f\n", w, el.Round(time.Millisecond), float64(len(waves))/el.Seconds())
	}
	// Paged baseline: one reusable index, waves matched sequentially.
	pixWave, err := prefmatch.BuildIndex(objects, nil)
	if err != nil {
		panic(err)
	}
	start = time.Now()
	for _, wv := range waves {
		if _, err := pixWave.Match(wv, nil); err != nil {
			panic(err)
		}
	}
	el = time.Since(start)
	fmt.Printf("%-10s %14v %14.2f\n", "paged(1)", el.Round(time.Millisecond), float64(len(waves))/el.Seconds())
}

// runBatch measures the batched shared-traversal serving path: the same
// batch of queries answered per-query (srv.TopK in a loop, one ranked
// search per function) and batched (srv.TopKManyAppend, one tree walk for
// the whole batch with blocked scoring kernels), across batch sizes Q.
// queries/s is wall-clock throughput; nodes/query is the average R-tree
// nodes expanded per answered query (Stats().NodesVisited over Served()),
// the direct measure of traversal sharing — the batched rows must fall as
// Q grows while the per-query rows stay flat.
func runBatch(sc scale, seed int64) {
	const (
		d = 4
		k = 10
	)
	nObjects := sc.objectsFig2
	items := dataset.Independent(nObjects, d, seed)
	fns := dataset.Functions(64, d, seed+1)

	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	queries := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}

	fmt.Printf("benchfig: batched shared-traversal serving — |O| = %d, D = %d, k = %d (bench trajectory: %s)\n\n",
		nObjects, d, k, benchSnapshot)
	fmt.Printf("%-6s %-10s %14s %14s %14s\n", "Q", "mode", "ns/batch", "queries/s", "nodes/query")
	var perfn16, batched16 float64
	for _, q := range []int{1, 8, 16, 64} {
		qs := queries[:q]
		// Per-query baseline: a fresh server per row so the node counter
		// attributes cleanly to this configuration.
		srv, err := prefmatch.NewServer(objects, nil)
		if err != nil {
			panic(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, query := range qs {
					if _, err := srv.TopK(query, k); err != nil {
						panic(err)
					}
				}
			}
		})
		nodes := float64(srv.Stats().NodesVisited) / float64(srv.Served())
		fmt.Printf("%-6d %-10s %14d %14.0f %14.3f\n",
			q, "perfn", r.NsPerOp(), float64(q)*1e9/float64(r.NsPerOp()), nodes)
		if q == 16 {
			perfn16 = nodes
		}
		bsrv, err := prefmatch.NewServer(objects, nil)
		if err != nil {
			panic(err)
		}
		var (
			dst     []prefmatch.Assignment
			offsets []int
		)
		rb := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				dst, offsets, err = bsrv.TopKManyAppend(dst[:0], offsets[:0], qs, k)
				if err != nil {
					panic(err)
				}
			}
		})
		bnodes := float64(bsrv.Stats().NodesVisited) / float64(bsrv.Served())
		fmt.Printf("%-6d %-10s %14d %14.0f %14.3f\n",
			q, "batched", rb.NsPerOp(), float64(q)*1e9/float64(rb.NsPerOp()), bnodes)
		if q == 16 {
			batched16 = bnodes
		}
	}
	fmt.Printf("\nQ=16 traversal sharing: %.3f nodes/query batched vs %.3f per-query (%.2fx)\n",
		batched16, perfn16, batched16/perfn16)
}

// runAlloc measures the steady-state allocation profile of the serving
// path: ns/op, B/op and allocs/op per top-k query, from the raw pooled
// ranked search over a memory snapshot (the zero-alloc layer, pinned at 0
// allocs/op by TestZeroAllocSteadyState) up through the public Server
// surface (which adds the per-request snapshot and the returned assignment
// slice) and a sharded server's composite walk. The CI bench smoke step
// runs this mode so the allocation trajectory is visible on every change;
// with check set the pooled rows become a regression gate — any allocation
// on a pooled steady-state path exits non-zero.
func runAlloc(sc scale, seed int64, check bool) {
	const (
		d = 4
		k = 10
	)
	nObjects := sc.objectsFig2
	items := dataset.Independent(nObjects, d, seed)
	fns := dataset.Functions(sc.functions, d, seed+1)

	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	queries := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}

	ix, err := mem.Build(d, items, nil)
	if err != nil {
		panic(err)
	}
	snap := ix.Snapshot()
	prefsBoxed := make([]prefs.Preference, len(fns))
	for i, f := range fns {
		prefsBoxed[i] = f
	}
	srv, err := prefmatch.NewServer(objects, nil)
	if err != nil {
		panic(err)
	}
	shsrv, err := prefmatch.NewServer(objects, &prefmatch.Options{Shards: 4, ShardBy: prefmatch.ShardSpatial})
	if err != nil {
		panic(err)
	}
	// Slow-query detection armed but never firing: the per-request threshold
	// comparison sits on the hot path and must cost nothing; only an actual
	// slow query pays for the formatted log line.
	slowSrv, err := prefmatch.NewServer(objects, &prefmatch.Options{
		SlowQueryThreshold: time.Hour,
		SlowQueryLog:       io.Discard,
	})
	if err != nil {
		panic(err)
	}

	// Dynamic-backend rows: the same pooled paths over a write tier holding
	// 512 live updates (tombstones + delta inserts). Size-triggered merges
	// are disabled so the delta stays resident for the whole measurement —
	// the rows pin the overlay read path itself, not a post-merge base.
	dix, err := dynamic.Build(d, items, &dynamic.Options{MergeThreshold: -1})
	if err != nil {
		panic(err)
	}
	dsrv, err := prefmatch.NewServer(objects, &prefmatch.Options{Backend: prefmatch.Dynamic, MergeThreshold: -1})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 512; i++ {
		p := append(vec.Point(nil), items[i].Point...)
		p[0] = 1 - p[0]
		if err := dix.Update(items[i].ID, p); err != nil {
			panic(err)
		}
		obj := objects[i]
		obj.Values = p
		if err := dsrv.Update(obj); err != nil {
			panic(err)
		}
	}
	dsnap := dix.Snapshot()

	// Production-hardening row: admission gate armed plus a live cancelable
	// context, so both the gate's uncontended acquire and the per-node
	// cancellation checkpoints sit on the measured path. A deadline nobody
	// fires must cost zero allocations.
	gatedSrv, err := prefmatch.NewServer(objects, &prefmatch.Options{MaxInFlight: 4})
	if err != nil {
		panic(err)
	}
	liveCtx, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()

	// Session row: the epoch-keyed result-cache hit path. Warmed here so the
	// measured loop is the steady state the gate pins at zero.
	hitSess, err := srv.OpenSession(queries[0])
	if err != nil {
		panic(err)
	}
	{
		warm := make([]prefmatch.Assignment, 0, k)
		for i := 0; i < 3; i++ {
			if _, err := hitSess.TopKAppend(warm[:0], k); err != nil {
				panic(err)
			}
		}
	}

	rows := []struct {
		name string
		gate bool // pooled steady-state path: must stay at 0 allocs/op
		run  func(b *testing.B)
	}{
		{"topk/Top1 (pooled, mem snapshot)", true, func(b *testing.B) {
			c := &stats.Counters{}
			for i := 0; i < b.N; i++ {
				if _, _, err := topk.Top1(snap, prefsBoxed[i%len(prefsBoxed)], c); err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("topk/SearchAppend k=%d (reused buffer)", k), true, func(b *testing.B) {
			c := &stats.Counters{}
			buf := make([]topk.Result, 0, k)
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = topk.SearchAppend(buf[:0], snap, prefsBoxed[i%len(prefsBoxed)], k, c)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Server.TopKManyAppend q=8 k=%d (batched)", k), true, func(b *testing.B) {
			var (
				dst     []prefmatch.Assignment
				offsets []int
			)
			batchQs := queries[:8]
			for i := 0; i < b.N; i++ {
				var err error
				dst, offsets, err = srv.TopKManyAppend(dst[:0], offsets[:0], batchQs, k)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("topk/SearchAppend k=%d (dyn, 512-write delta)", k), true, func(b *testing.B) {
			c := &stats.Counters{}
			buf := make([]topk.Result, 0, k)
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = topk.SearchAppend(buf[:0], dsnap, prefsBoxed[i%len(prefsBoxed)], k, c)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Server.TopKManyAppend q=8 k=%d (dyn)", k), true, func(b *testing.B) {
			var (
				dst     []prefmatch.Assignment
				offsets []int
			)
			batchQs := queries[:8]
			for i := 0; i < b.N; i++ {
				var err error
				dst, offsets, err = dsrv.TopKManyAppend(dst[:0], offsets[:0], batchQs, k)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Server.TopKManyAppend q=8 k=%d (slowlog armed)", k), true, func(b *testing.B) {
			var (
				dst     []prefmatch.Assignment
				offsets []int
			)
			batchQs := queries[:8]
			for i := 0; i < b.N; i++ {
				var err error
				dst, offsets, err = slowSrv.TopKManyAppend(dst[:0], offsets[:0], batchQs, k)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Session.TopKAppend k=%d (cache hit)", k), true, func(b *testing.B) {
			dst := make([]prefmatch.Assignment, 0, k)
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = hitSess.TopKAppend(dst[:0], k)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Server.TopKManyAppend q=8 k=%d (gated+ctx)", k), true, func(b *testing.B) {
			var (
				dst     []prefmatch.Assignment
				offsets []int
			)
			batchQs := queries[:8]
			for i := 0; i < b.N; i++ {
				var err error
				dst, offsets, err = gatedSrv.TopKManyAppendContext(liveCtx, dst[:0], offsets[:0], batchQs, k)
				if err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Server.TopK k=%d", k), false, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := srv.TopK(queries[i%len(queries)], k); err != nil {
					panic(err)
				}
			}
		}},
		{fmt.Sprintf("Server.TopK k=%d (spatial/4)", k), false, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shsrv.TopK(queries[i%len(queries)], k); err != nil {
					panic(err)
				}
			}
		}},
	}

	fmt.Printf("benchfig: steady-state serving allocations — |O| = %d, |Q| = %d, D = %d, k = %d (bench trajectory: %s)\n\n",
		nObjects, len(queries), d, k, benchSnapshot)
	fmt.Printf("%-46s %14s %12s %12s\n", "path", "ns/op", "B/op", "allocs/op")
	failed := false
	for _, row := range rows {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			row.run(b)
		})
		fmt.Printf("%-46s %14d %12d %12d\n", row.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
		if check && row.gate && r.AllocsPerOp() > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "benchfig: ALLOC REGRESSION: %s reports %d allocs/op, want 0\n", row.name, r.AllocsPerOp())
		}
	}
	if check {
		if failed {
			os.Exit(1)
		}
		fmt.Println("\nalloc gate: every pooled steady-state path at 0 allocs/op")
	}
}

// runSessions measures the preference-session serving paths against the
// cold walk: a session answering the same weights repeatedly (every call a
// result-cache hit), sessions nudged by 1% and 10% per call (fresh cache
// keys — served by incremental re-qualification when the rank gaps beat the
// weight-delta bound, by a walk otherwise), and Server.TopK as
// the cold baseline that walks every time. The dataset has a separated head
// — a dominant cluster with evenly spaced scores — because re-qualification
// is a rank-gap machine: on uniform data every nudge falls back and the
// table would only show the fallback cost. The hit/requal/fallback split
// comes from the server's own pm_rescache_* counters, so the table proves
// which path served each row rather than assuming it.
func runSessions(sc scale, seed int64) {
	const (
		d = 4
		k = 10
	)
	nObjects := sc.objectsFig2
	rng := rand.New(rand.NewSource(seed))
	objects := make([]prefmatch.Object, nObjects)
	for i := range objects {
		vals := make([]float64, d)
		if i < 25 {
			// The separated head: superstars dominating every coordinate
			// with evenly spaced values, so top ranks have real gaps.
			for j := range vals {
				vals[j] = 1.0 - 0.015*float64(i)
			}
		} else {
			for j := range vals {
				vals[j] = rng.Float64() * 0.4
			}
		}
		objects[i] = prefmatch.Object{ID: i, Values: vals}
	}
	srv, err := prefmatch.NewServer(objects, nil)
	if err != nil {
		panic(err)
	}
	base := []float64{0.4, 0.3, 0.2, 0.1}

	rcCounter := func(name string) float64 {
		var buf strings.Builder
		if err := srv.WriteMetrics(&buf); err != nil {
			panic(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				var v float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err != nil {
					panic(err)
				}
				return v
			}
		}
		panic("metric not found: " + name)
	}

	fmt.Printf("benchfig: preference sessions — |O| = %d (separated head), D = %d, k = %d (bench trajectory: %s)\n\n",
		nObjects, d, k, benchSnapshot)
	fmt.Printf("%-26s %8s %14s %14s %8s %8s %8s\n",
		"mode", "nudge%", "ns/op", "queries/s", "hit%", "requal%", "walk%")

	type rowResult struct{ qps float64 }
	results := map[string]rowResult{}
	row := func(name string, nudgePct float64, run func(b *testing.B)) {
		h0 := rcCounter("pm_rescache_hits_total")
		r0 := rcCounter("pm_rescache_requalified_total")
		f0 := rcCounter("pm_rescache_fallbacks_total")
		r := testing.Benchmark(run)
		served := rcCounter("pm_rescache_hits_total") - h0 +
			rcCounter("pm_rescache_requalified_total") - r0 +
			rcCounter("pm_rescache_fallbacks_total") - f0
		pct := func(v float64) float64 {
			if served == 0 {
				return 0
			}
			return 100 * v / served
		}
		qps := 1e9 / float64(r.NsPerOp())
		results[name] = rowResult{qps: qps}
		fmt.Printf("%-26s %8.0f %14d %14.0f %8.1f %8.1f %8.1f\n",
			name, nudgePct, r.NsPerOp(), qps,
			pct(rcCounter("pm_rescache_hits_total")-h0),
			pct(rcCounter("pm_rescache_requalified_total")-r0),
			pct(rcCounter("pm_rescache_fallbacks_total")-f0))
	}

	// Cold baseline: Server.TopK walks the tree on every call (the result
	// cache serves sessions only).
	coldQuery := prefmatch.Query{ID: 0, Weights: base}
	row("Server.TopK (cold)", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := srv.TopK(coldQuery, k); err != nil {
				panic(err)
			}
		}
	})

	// Cached: one session, never nudged — every call after the first is a
	// result-cache hit.
	hitSess, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: base})
	if err != nil {
		panic(err)
	}
	dst := make([]prefmatch.Assignment, 0, k)
	if _, err := hitSess.TopKAppend(dst[:0], k); err != nil {
		panic(err)
	}
	row("Session (cached)", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = hitSess.TopKAppend(dst[:0], k)
			if err != nil {
				panic(err)
			}
		}
	})

	// Nudged: a fresh random perturbation of every weight per call — every
	// key is new, so each answer is either a re-qualification or a seeded
	// walk; the magnitude decides which dominates.
	for _, mag := range []float64{0.01, 0.10} {
		sess, err := srv.OpenSession(prefmatch.Query{ID: 2, Weights: base})
		if err != nil {
			panic(err)
		}
		if _, err := sess.TopKAppend(dst[:0], k); err != nil {
			panic(err)
		}
		nrng := rand.New(rand.NewSource(seed + int64(mag*1000)))
		w := append([]float64(nil), base...)
		name := fmt.Sprintf("Session (nudge %g%%)", mag*100)
		row(name, mag*100, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range w {
					w[j] = base[j] * (1 + mag*(nrng.Float64()-0.5))
				}
				if err := sess.Nudge(w); err != nil {
					panic(err)
				}
				var err error
				dst, err = sess.TopKAppend(dst[:0], k)
				if err != nil {
					panic(err)
				}
			}
		})
	}

	cold := results["Server.TopK (cold)"].qps
	fmt.Printf("\nspeedup vs cold walk: cached %.1fx, nudge 1%% %.1fx, nudge 10%% %.1fx\n",
		results["Session (cached)"].qps/cold,
		results["Session (nudge 1%)"].qps/cold,
		results["Session (nudge 10%)"].qps/cold)
}

// runChurn measures serving under live mutation: a single client issues ops
// operations against one server, each either a top-k read or (with
// probability writeRate) an in-place Update — a tombstone plus a delta
// insert through the dynamic write tier, with background merges rotating
// epochs whenever the tier crosses the threshold. The p50/p99 columns come
// from the server's own latency histograms (Server.LatencyQuantile), so the
// bench reports exactly what /metrics exports — one measurement path, not a
// private one that can drift. The log-scale buckets quantise upward by at
// most 25%, which is noise at the scale of the claims under test. reads/s
// divides completed reads by the whole mixed run's wall clock, so write and
// merge overhead is charged to the read throughput exactly as a caller
// would see it.
//
// Every 64th read is issued through TopKContext with an already-canceled
// context — an impatient caller that hung up before the request started.
// Those reads must fail with ErrCanceled without being counted toward
// throughput; the canceled and shed columns report the server's own
// pm_canceled_total / pm_shed_total counters, so the table shows the
// hardening layer charging abandoned work correctly under churn.
func runChurn(sc scale, seed int64, ops int, adminAddr string) {
	const (
		d = 4
		k = 10
	)
	nObjects := sc.objectsFig2
	items := dataset.Independent(nObjects, d, seed)
	fns := dataset.Functions(sc.functions, d, seed+1)

	baseObjects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		baseObjects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	queries := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}

	fmt.Printf("benchfig: serving under churn — |O| = %d, D = %d, k = %d, %d ops/config (bench trajectory: %s)\n\n",
		nObjects, d, k, ops, benchSnapshot)
	fmt.Printf("%-18s %8s %10s %12s %10s %10s %8s %8s %9s %6s\n",
		"config", "write%", "reads", "reads/s", "p50", "p99", "writes", "merges", "canceled", "shed")

	// An impatient caller: the context was canceled before the request was
	// ever issued, so the server sheds the work at the admission checkpoint.
	abandonedCtx, cancelAbandoned := context.WithCancel(context.Background())
	cancelAbandoned()

	run := func(name string, srv *prefmatch.Server, writeRate float64) float64 {
		// Every configuration replays the same op sequence; writes clone
		// the value slice so the shared base object set stays pristine.
		objects := append([]prefmatch.Object(nil), baseObjects...)
		rng := rand.New(rand.NewSource(seed + 7))
		if adminAddr != "" {
			// One admin listener at a time: each configuration serves the
			// endpoints for its own run and releases the port before the
			// next server binds it.
			bound, err := srv.ServeAdmin(adminAddr)
			if err != nil {
				panic(err)
			}
			defer srv.Close()
			fmt.Printf("  [%s admin on http://%s]\n", name, bound)
		}
		reads := 0
		writes := 0
		start := time.Now()
		for i := 0; i < ops; i++ {
			if writeRate > 0 && rng.Float64() < writeRate {
				idx := rng.Intn(len(objects))
				obj := objects[idx]
				vals := append([]float64(nil), obj.Values...)
				vals[i%d] = rng.Float64()
				obj.Values = vals
				objects[idx] = obj
				if err := srv.Update(obj); err != nil {
					panic(err)
				}
				writes++
				continue
			}
			if i%64 == 63 {
				if _, err := srv.TopKContext(abandonedCtx, queries[i%len(queries)], k); !errors.Is(err, prefmatch.ErrCanceled) {
					panic(fmt.Sprintf("abandoned read: got %v, want ErrCanceled", err))
				}
				continue
			}
			if _, err := srv.TopK(queries[i%len(queries)], k); err != nil {
				panic(err)
			}
			reads++
		}
		el := time.Since(start)
		p50, ok50 := srv.LatencyQuantile("topk", 0.50)
		p99, ok99 := srv.LatencyQuantile("topk", 0.99)
		if !ok50 || !ok99 {
			panic("churn run recorded no topk latencies")
		}
		qps := float64(reads) / el.Seconds()
		st := srv.Stats()
		fmt.Printf("%-18s %8.0f %10d %12.0f %10v %10v %8d %8d %9d %6d\n",
			name, writeRate*100, reads, qps,
			p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			writes, st.MergesCompleted, st.Canceled, st.Shed)
		return qps
	}

	static, err := prefmatch.NewServer(baseObjects, nil)
	if err != nil {
		panic(err)
	}
	staticQPS := run("static/mem", static, 0)

	qpsAt1 := map[int]float64{}
	for _, threshold := range []int{256, 4096} {
		for _, rate := range []float64{0, 0.01, 0.10} {
			srv, err := prefmatch.NewServer(baseObjects, &prefmatch.Options{
				Backend:        prefmatch.Dynamic,
				MergeThreshold: threshold,
			})
			if err != nil {
				panic(err)
			}
			qps := run(fmt.Sprintf("dyn/%d", threshold), srv, rate)
			if rate == 0.01 {
				qpsAt1[threshold] = qps
			}
		}
	}
	fmt.Printf("\nread throughput at 1%% writes vs static baseline: dyn/256 %.1f%%, dyn/4096 %.1f%%\n",
		100*qpsAt1[256]/staticQPS, 100*qpsAt1[4096]/staticQPS)
}

// runSharded measures the sharded composite against the unsharded memory
// server on a clustered object set (the workload spatial partitioning is
// built for): per-user top-k queries answered shard by shard with MBR
// pruning (single-threaded — a worker budget of 1 isolates the pruning
// effect), SB matching waves compared between the single-threaded composite
// traversal and the shard-parallel wave (sharded.MatchWave, the Server's
// path), and a BruteForce wave against a fresh single index. Each row is
// one configuration; shardsPruned counts whole shards (or candidate
// streams) skipped by MBR pruning across the run (the spatial partitioner's
// whole point — hash and rr shards span the full space and can never
// prune). Every configuration's assignments are re-checked against the
// unsharded reference inline.
func runSharded(sc scale, seed int64) {
	const (
		d        = 4
		k        = 10
		waveSize = 50
	)
	nObjects := sc.objectsFig2
	nQueries := 2 * sc.functions
	items := dataset.Clustered(nObjects, d, 8, seed)
	fns := dataset.Functions(nQueries, d, seed+1)

	objects := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objects[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	queries := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		queries[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}
	var waves [][]prefmatch.Query
	for i := 0; i+waveSize <= len(queries) && len(waves) < 8; i += waveSize {
		waves = append(waves, queries[i:i+waveSize])
	}

	type config struct {
		name    string
		shards  int
		shardBy prefmatch.ShardBy
	}
	configs := []config{{name: "unsharded"}}
	for _, n := range []int{2, 4, 8} {
		for _, by := range []prefmatch.ShardBy{prefmatch.ShardSpatial, prefmatch.ShardHash} {
			configs = append(configs, config{name: fmt.Sprintf("%v/%d", by, n), shards: n, shardBy: by})
		}
	}

	fmt.Printf("benchfig: sharded vs unsharded serving — |O| = %d (clustered), |Q| = %d, D = %d, k = %d (bench trajectory: %s)\n",
		nObjects, nQueries, d, k, benchSnapshot)

	var reference [][]prefmatch.Assignment
	fmt.Printf("\n== Top-%d queries/sec by shard configuration ==\n", k)
	fmt.Printf("%-14s %14s %14s %14s\n", "config", "elapsed", "queries/s", "shardsPruned")
	for _, cfg := range configs {
		srv, err := prefmatch.NewServer(objects, &prefmatch.Options{Shards: cfg.shards, ShardBy: cfg.shardBy})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		results, err := srv.TopKMany(queries, k, 1)
		el := time.Since(start)
		if err != nil {
			panic(err)
		}
		if reference == nil {
			reference = results
		} else {
			for i := range results {
				if !equalAssignments(results[i], reference[i]) {
					panic(fmt.Sprintf("sharded config %s diverged from unsharded on query %d", cfg.name, queries[i].ID))
				}
			}
		}
		fmt.Printf("%-14s %14v %14.0f %14d\n",
			cfg.name, el.Round(time.Millisecond), float64(nQueries)/el.Seconds(), srv.Stats().ShardsPruned)
	}

	fmt.Println("\n== SB matching waves/sec: composite traversal vs shard-parallel wave ==")
	fmt.Printf("%-14s %14s %14s\n", "config", "composite w/s", "wave w/s")
	var waveRef []*prefmatch.Result
	for _, cfg := range configs {
		// Composite traversal: the reusable Index runs SB over the
		// synthetic root single-threaded (the pre-wave path).
		bix, err := prefmatch.BuildIndex(objects, &prefmatch.Options{Backend: prefmatch.Memory, Shards: cfg.shards, ShardBy: cfg.shardBy})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for _, wv := range waves {
			if _, err := bix.Match(wv, nil); err != nil {
				panic(err)
			}
		}
		compEl := time.Since(start)
		// Shard-parallel wave: a sharded Server routes Match through
		// sharded.MatchWave automatically.
		srv, err := prefmatch.NewServer(objects, &prefmatch.Options{Shards: cfg.shards, ShardBy: cfg.shardBy})
		if err != nil {
			panic(err)
		}
		start = time.Now()
		res, err := srv.MatchMany(waves, nil, 0)
		waveEl := time.Since(start)
		if err != nil {
			panic(err)
		}
		if waveRef == nil {
			waveRef = res
		} else {
			for i := range res {
				if !equalAssignments(res[i].Assignments, waveRef[i].Assignments) {
					panic(fmt.Sprintf("sharded config %s diverged from unsharded on wave %d", cfg.name, i))
				}
			}
		}
		fmt.Printf("%-14s %14.2f %14.2f\n", cfg.name,
			float64(len(waves))/compEl.Seconds(), float64(len(waves))/waveEl.Seconds())
	}

	// BruteForce cannot run against a shared single index (it consumes it);
	// the shard-parallel wave removes objects only logically, so it serves
	// the same composite wave after wave. One wave, timed against a fresh
	// single-index run.
	bfFns := fns
	if len(bfFns) > 400 {
		bfFns = bfFns[:400]
	}
	singleIx, err := mem.Build(d, items, nil)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	refPairs, err := core.Match(singleIx, bfFns, &core.Options{Algorithm: core.AlgBruteForce, Counters: &stats.Counters{}})
	if err != nil {
		panic(err)
	}
	singleEl := time.Since(start)
	fmt.Printf("\n== BruteForce matching, one wave of |Q| = %d: fresh single index vs shard-parallel wave ==\n", len(bfFns))
	fmt.Printf("%-14s %14s %14s\n", "config", "elapsed", "shardsPruned")
	fmt.Printf("%-14s %14v %14s\n", "single(fresh)", singleEl.Round(time.Millisecond), "-")
	for _, cfg := range configs {
		if cfg.shards == 0 {
			continue
		}
		var part sharded.Partitioner = sharded.Spatial{}
		if cfg.shardBy == prefmatch.ShardHash {
			part = sharded.Hash{}
		}
		six, err := sharded.Build(d, items, &sharded.Options{Shards: cfg.shards, Partitioner: part})
		if err != nil {
			panic(err)
		}
		c := &stats.Counters{}
		start := time.Now()
		pairs, err := six.MatchWave(bfFns, &core.Options{Algorithm: core.AlgBruteForce}, 0, c)
		el := time.Since(start)
		if err != nil {
			panic(err)
		}
		if len(pairs) != len(refPairs) {
			panic(fmt.Sprintf("BF wave %s emitted %d pairs, single index %d", cfg.name, len(pairs), len(refPairs)))
		}
		for i := range pairs {
			if pairs[i] != refPairs[i] {
				panic(fmt.Sprintf("BF wave %s diverged from the single index at pair %d", cfg.name, i))
			}
		}
		fmt.Printf("%-14s %14v %14d\n", cfg.name, el.Round(time.Millisecond), c.ShardsPruned)
	}
}

// equalAssignments reports bit-identical assignment slices.
func equalAssignments(a, b []prefmatch.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildExperiments(sc scale, seed int64) []experiment {
	return []experiment{
		{
			name:    "fig2-independent",
			panels:  []string{"Figure 2(a): I/O vs D (independent)", "Figure 2(c): CPU vs D (independent)"},
			xLabel:  "D",
			xValues: sc.dims,
			run: func(d int, cb combo) cell {
				items := dataset.Independent(sc.objectsFig2, d, seed+int64(d))
				fns := dataset.Functions(sc.functions, d, seed+100+int64(d))
				return runOnce(items, fns, d, cb)
			},
		},
		{
			name:    "fig2-anticorrelated",
			panels:  []string{"Figure 2(b): I/O vs D (anti-correlated)", "Figure 2(d): CPU vs D (anti-correlated)"},
			xLabel:  "D",
			xValues: sc.dims,
			run: func(d int, cb combo) cell {
				items := dataset.AntiCorrelated(sc.objectsFig2, d, seed+200+int64(d))
				fns := dataset.Functions(sc.functions, d, seed+300+int64(d))
				return runOnce(items, fns, d, cb)
			},
		},
		{
			name:    "fig3-zillow",
			panels:  []string{"Figure 3(a): I/O vs |O| (Zillow-like)", "Figure 3(b): CPU vs |O| (Zillow-like)"},
			xLabel:  "|O|",
			xValues: sc.objectsFig3,
			run: func(n int, cb combo) cell {
				items := dataset.Zillow(n, seed+400)
				fns := dataset.Functions(sc.functions, dataset.ZillowDim, seed+500)
				return runOnce(items, fns, dataset.ZillowDim, cb)
			},
		},
	}
}

// runOnce builds a fresh index on the combo's backend (Brute Force and
// Chain consume it), resets the counters after construction, and runs the
// matcher to completion.
func runOnce(items []index.Item, fns []prefs.Function, d int, cb combo) cell {
	c := &stats.Counters{}
	var (
		ix  index.ObjectIndex
		err error
	)
	if cb.backend == "mem" {
		ix, err = mem.Build(d, items, &mem.Options{Counters: c})
	} else {
		ix, err = paged.Build(d, items, &paged.Options{Counters: c})
	}
	if err != nil {
		panic(err)
	}
	c.Reset()
	start := time.Now()
	if _, err := core.Match(ix, fns, &core.Options{Algorithm: cb.alg, Counters: c}); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	return cell{io: c.IOAccesses(), cpu: elapsed, top1: c.Top1Searches, skyMax: c.SkylineMaxSize, loops: c.Loops}
}

func runExperiment(ex experiment, combos []combo) {
	results := map[int]map[combo]cell{}
	for _, x := range ex.xValues {
		results[x] = map[combo]cell{}
		for _, cb := range combos {
			fmt.Fprintf(os.Stderr, "  running %s %s=%d %s ...\n", ex.name, ex.xLabel, x, cb)
			results[x][cb] = ex.run(x, cb)
		}
	}
	xs := append([]int(nil), ex.xValues...)
	sort.Ints(xs)

	fmt.Printf("\n== %s ==\n", ex.panels[0])
	printTable(ex.xLabel, xs, combos, results, func(c cell) string { return fmt.Sprintf("%d", c.io) })
	fmt.Printf("\n== %s ==\n", ex.panels[1])
	printTable(ex.xLabel, xs, combos, results, func(c cell) string { return fmt.Sprintf("%.3fs", c.cpu.Seconds()) })

	fmt.Println("\nauxiliary counters:")
	printTable(ex.xLabel, xs, combos, results, func(c cell) string {
		return fmt.Sprintf("top1=%d skyMax=%d loops=%d", c.top1, c.skyMax, c.loops)
	})
}

func printTable(xLabel string, xs []int, combos []combo, results map[int]map[combo]cell, format func(cell) string) {
	fmt.Printf("%-10s", xLabel)
	for _, cb := range combos {
		fmt.Printf(" %28s", cb)
	}
	fmt.Println()
	for _, x := range xs {
		fmt.Printf("%-10d", x)
		for _, cb := range combos {
			fmt.Printf(" %28s", format(results[x][cb]))
		}
		fmt.Println()
	}
}
