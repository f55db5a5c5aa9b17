// Command benchfig regenerates every figure of the paper's evaluation
// (§ V): Figure 2(a)-(d) — I/O and CPU versus dimensionality on independent
// and anti-correlated data — and Figure 3(a)-(b) — I/O and CPU versus
// object cardinality on the Zillow-like dataset. One run of an experiment
// produces both the I/O panel and the CPU panel. It also runs the serving
// path's allocation gate.
//
//	go run ./cmd/benchfig                  # all experiments, reduced scale
//	go run ./cmd/benchfig -fig 2a          # one panel (its experiment runs once)
//	go run ./cmd/benchfig -full            # paper-scale parameters (slow!)
//	go run ./cmd/benchfig -algs sb,bf      # subset of algorithms
//	go run ./cmd/benchfig -backends paged  # paper mode only (skip the memory rows)
//	go run ./cmd/benchfig -alloc           # steady-state serving allocs/op and B/op
//	go run ./cmd/benchfig -alloc -check    # the same, exiting non-zero if a gated row allocates
//
// Every algorithm runs on both storage backends by default: "paged" is the
// paper-faithful disk simulation whose I/O panel reproduces the figures, and
// "mem" is the in-memory serving backend (always zero I/O).
//
// Reduced scale keeps every curve's shape while finishing in minutes;
// -full uses the paper's |O| = 100K (up to 400K for Fig. 3) and |F| = 5000.
//
// Serving throughput and latency are measured by the benchmark in bench/
// (bash bench/run.sh), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

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
	alloc := flag.Bool("alloc", false, "run the allocation experiment: steady-state serving ns/op, B/op and allocs/op")
	check := flag.Bool("check", false, "with -alloc: exit non-zero if a pooled steady-state path reports > 0 allocs/op (the CI regression gate)")
	seed := flag.Int64("seed", 2009, "dataset seed")
	flag.Parse()

	sc := smallScale
	label := "reduced scale"
	if *full {
		sc = fullScale
		label = "paper scale"
	}

	if *alloc {
		runAlloc(sc, *seed, *check)
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

	fmt.Printf("benchfig: %s — |F| = %d\n", label, sc.functions)
	for _, ex := range experiments {
		if !want[ex.name] {
			continue
		}
		runExperiment(ex, combos)
	}
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

	fmt.Printf("benchfig: steady-state serving allocations — |O| = %d, |Q| = %d, D = %d, k = %d\n\n",
		nObjects, len(queries), d, k)
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
