package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"prefmatch"
	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// e2eMetrics are the gated end-to-end metrics every workload reports, in
// print order; BENCHMARK.json's end_to_end list names exactly these.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"qps", "1/s"},
	{"cpu_us_per_op", "us"},
	{"bytes_per_object", "B"},
}

// layerMetrics are the per-layer metrics a traced run reports, in print
// order; BENCHMARK.json's per_layer list names exactly these. A layer the
// workload does not exercise reports zero work.
var layerMetrics = []struct{ name, unit string }{
	{"vec.dotsum_ns_per_elem", "ns"},
	{"vec.dotsumbatch_ns_per_elem", "ns"},
	{"vec.mbrboundsbatch_ns_per_elem", "ns"},
	{"vec.deltabound_ns", "ns"},
	{"index.readnode_ns", "ns"},
	{"index.nodes_per_query", "count"},
	{"index.delta_nodes_per_read", "count"},
	{"index.shards_pruned_frac", "ratio"},
	{"index.merges", "count"},
	{"index.build_s", "s"},
	{"topk.search_us", "us"},
	{"topk.self_us", "us"},
	{"topk.batch_us_per_query", "us"},
	{"topk.score_evals_per_query", "count"},
	{"topk.heap_ops_per_query", "count"},
	{"server.overhead_us", "us"},
	{"server.batch_overhead_us_per_query", "us"},
	{"server.stage_validate_us", "us"},
	{"server.stage_pin_us", "us"},
	{"server.stage_traverse_us", "us"},
	{"server.stage_merge_us", "us"},
	{"session.hit_frac", "ratio"},
	{"session.requal_frac", "ratio"},
	{"session.walk_frac", "ratio"},
	{"rescache.evictions_per_op", "count"},
	{"core.loops_per_wave.sb", "count"},
	{"core.loops_per_wave.chain", "count"},
	{"core.loops_per_wave.bf", "count"},
	{"core.top1_per_wave.chain", "count"},
	{"core.top1_per_wave.bf", "count"},
	{"core.score_evals_per_wave.sb", "count"},
	{"core.score_evals_per_wave.chain", "count"},
	{"core.score_evals_per_wave.bf", "count"},
	{"skyline.max_size", "count"},
	{"skyline.compute_ms", "ms"},
	{"paged.io_pages.sb", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"client.late_p90_us", "us"},
	{"client.p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// layerValues collects a traced run's per-layer numbers by name.
type layerValues map[string]float64

// emit appends every declared per-layer metric to res in table order.
func (lv layerValues) emit(res *result) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		res.add(&res.layers, m.name, m.unit, lv[m.name])
	}
	for name := range lv {
		if !known[name] {
			panic("bench: undeclared per-layer metric " + name)
		}
	}
}

// finishE2E appends the gated end-to-end metrics in table order.
func finishE2E(res *result, setupS, bytesPerObject float64, lat latencies, queries int64, elapsed, cpu time.Duration, ops int64) {
	vals := map[string]float64{
		"setup_s":          setupS,
		"p50_us":           lat.pct(0.50),
		"p90_us":           lat.pct(0.90),
		"qps":              float64(queries) / elapsed.Seconds(),
		"cpu_us_per_op":    cpu.Seconds() * 1e6 / float64(max(ops, 1)),
		"bytes_per_object": bytesPerObject,
	}
	for _, m := range e2eMetrics {
		res.add(&res.e2e, m.name, m.unit, vals[m.name])
	}
	res.add(&res.extra, "client.p99_us", "us", lat.pct(0.99))
	res.add(&res.extra, "samples", "count", float64(len(lat)))
}

// addRuntime fills the runtime and allocation metrics over a phase.
func (lv layerValues) addRuntime(before, after rtSample, ops int64) {
	lv["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	lv["runtime.gc_pause_p99_us"] = after.pauseP99us()
	lv["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(max(ops, 1))
}

// addClient fills the generator's validity guards and tracing's own cost
// from a loop whose halves ran untraced and traced.
func (lv layerValues) addClient(untraced, traced, late latencies) {
	lv["client.late_p90_us"] = late.pct(0.90)
	lv["client.p99_us"] = untraced.pct(0.99)
	if p := untraced.pct(0.50); p > 0 {
		lv["trace.overhead_frac"] = traced.pct(0.50)/p - 1
	}
}

// scrape reads the server's metric exposition — the same text /metrics
// serves — into a map from series (name plus labels) to value.
func scrape(srv *prefmatch.Server) (map[string]float64, error) {
	var b strings.Builder
	if err := srv.WriteMetrics(&b); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumFamily sums every series of a metric family (all label values).
func sumFamily(m map[string]float64, name string) float64 {
	s := m[name]
	for k, v := range m {
		if strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// addServerScrape fills the per-layer metrics read from the server's own
// exported counters, as deltas between two scrapes around the phase: stage
// means, session paths, cache evictions, merges and shard pruning.
func (lv layerValues) addServerScrape(a, b map[string]float64, ops int64) {
	d := func(k string) float64 { return b[k] - a[k] }
	for _, st := range []string{"validate", "pin", "traverse", "merge"} {
		if n := d(`pm_request_stage_seconds_count{stage="` + st + `"}`); n > 0 {
			lv["server.stage_"+st+"_us"] = d(`pm_request_stage_seconds_sum{stage="`+st+`"}`) / n * 1e6
		}
	}
	hits, req, walks := d("pm_rescache_hits_total"), d("pm_rescache_requalified_total"), d("pm_rescache_fallbacks_total")
	if served := hits + req + walks; served > 0 {
		lv["session.hit_frac"] = hits / served
		lv["session.requal_frac"] = req / served
		lv["session.walk_frac"] = walks / served
	}
	lv["rescache.evictions_per_op"] = d("pm_rescache_evictions_total") / float64(max(ops, 1))
	lv["index.merges"] = d("pm_merges_completed_total")
	pruned := sumFamily(b, "pm_shard_pruned_total") - sumFamily(a, "pm_shard_pruned_total")
	searched := sumFamily(b, "pm_shard_queries_total") - sumFamily(a, "pm_shard_queries_total")
	if pruned+searched > 0 {
		lv["index.shards_pruned_frac"] = pruned / (pruned + searched)
	}
}

// histQuantileMs interpolates the q-quantile, in milliseconds, of the
// observations a seconds-valued histogram family gained between two scrapes.
func histQuantileMs(a, b map[string]float64, name string, q float64) float64 {
	// The exposition lists only non-empty buckets, each with its cumulative
	// count; a bound absent from a scrape holds the count of the nearest
	// listed bound below it.
	type bucket struct{ le, cum float64 }
	parse := func(m map[string]float64) []bucket {
		var bs []bucket
		for k, v := range m {
			rest, ok := strings.CutPrefix(k, name+`_bucket{le="`)
			if !ok || strings.HasPrefix(rest, "+Inf") {
				continue
			}
			if le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64); err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		return bs
	}
	cumAt := func(bs []bucket, le float64) float64 {
		c := 0.0
		for _, bk := range bs {
			if bk.le > le {
				break
			}
			c = bk.cum
		}
		return c
	}
	before, after := parse(a), parse(b)
	total := b[name+"_count"] - a[name+"_count"]
	if total <= 0 {
		return 0
	}
	need := q * total
	prevLe, prevN := 0.0, 0.0
	for _, bk := range after {
		n := bk.cum - cumAt(before, bk.le)
		if n >= need && n > prevN {
			return (prevLe + (bk.le-prevLe)*(need-prevN)/(n-prevN)) * 1e3
		}
		prevLe, prevN = bk.le, n
	}
	return prevLe * 1e3
}

// countingIndex is the benchmark's ObjectIndex wrapper: it records every node
// the engine reads and returns the backend's node unchanged, so the flat
// columnar fast paths still fire.
type countingIndex struct {
	index.ObjectIndex
	reads []index.NodeID
}

func (c *countingIndex) ReadNode(id index.NodeID) (index.Node, error) {
	c.reads = append(c.reads, id)
	return c.ObjectIndex.ReadNode(id)
}

// sink keeps timed loops from being optimised away.
var sink float64

// replay is a traced run's layer-by-layer pass: it sends the workload's own
// queries again, one layer at a time, and checks the layers agree with the
// server. objs is the object set the server holds; nodeParity says whether
// the server's tree is exactly mem.Build of objs (an unsharded Memory
// server), in which case each query must also read exactly as many nodes.
type replay struct {
	srv        *prefmatch.Server
	objs       []prefmatch.Object
	queries    []prefmatch.Query
	k          int
	nodeParity bool
	tr         *tracer
	lv         layerValues

	serverUs float64 // mean Server.TopK latency over the replayed queries
}

// run replays the queries and fills lv; it returns the number of parity
// mismatches between the server and the layers under it.
func (r *replay) run() (int, error) {
	d := len(r.objs[0].Values)
	n := len(r.queries)
	root := r.tr.add("replay", 0, 0, time.Now(), time.Now())
	defer func() { r.tr.finish(root, time.Now()) }()
	mismatches := 0

	items := make([]index.Item, len(r.objs))
	for i, o := range r.objs {
		items[i] = index.Item{ID: index.ObjID(o.ID), Point: vec.Point(o.Values)}
	}
	t0 := time.Now()
	ix, err := mem.Build(d, items, nil)
	if err != nil {
		return 0, err
	}
	r.lv["index.build_s"] = time.Since(t0).Seconds()
	r.tr.add("index.build", root, 0, t0, time.Now())

	fns := make([]prefs.Function, n)
	for i, q := range r.queries {
		if fns[i], err = prefs.NewFunction(q.ID, q.Weights); err != nil {
			return 0, err
		}
	}

	// Server.TopK and topk.SearchAppend over the same items: a warm pass,
	// then a timed pass that alternates the two query by query, so a drift
	// in the machine's speed hits both sides of the subtraction alike.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var c stats.Counters
	buf := make([]topk.Result, 0, r.k)
	ans := make([][]topk.Result, n)
	var serverNs, searchNs int64
	for pass := 0; pass < 2; pass++ {
		c = stats.Counters{}
		runtime.GC()
		for j, q := range r.queries {
			before := r.srv.Stats().NodesVisited
			ts := time.Now()
			got, err := r.srv.TopKContext(ctx, q, r.k)
			te := time.Now()
			if err != nil {
				return 0, err
			}
			srvNodes := r.srv.Stats().NodesVisited - before
			n0 := c.NodesVisited
			ts2 := time.Now()
			buf, err = topk.SearchAppend(buf[:0], ix, &fns[j], r.k, &c)
			te2 := time.Now()
			if err != nil {
				return 0, err
			}
			if pass == 0 {
				continue
			}
			serverNs += te.Sub(ts).Nanoseconds()
			searchNs += te2.Sub(ts2).Nanoseconds()
			r.tr.add("server.TopK", root, int64(j), ts, te)
			r.tr.add("topk.search", root, int64(j), ts2, te2)
			ans[j] = append([]topk.Result(nil), buf...)
			if !sameResults(got, ans[j]) || r.nodeParity && c.NodesVisited-n0 != srvNodes {
				mismatches++
			}
		}
	}
	r.serverUs = float64(serverNs) / 1e3 / float64(n)
	r.lv["topk.search_us"] = float64(searchNs) / 1e3 / float64(n)
	r.lv["index.nodes_per_query"] = float64(c.NodesVisited) / float64(n)
	r.lv["topk.score_evals_per_query"] = float64(c.ScoreEvals) / float64(n)
	r.lv["topk.heap_ops_per_query"] = float64(c.HeapOps) / float64(n)

	// Record the node reads, then time ReadNode alone over them.
	ci := &countingIndex{ObjectIndex: ix}
	for j := range fns {
		if buf, err = topk.SearchAppend(buf[:0], ci, &fns[j], r.k, nil); err != nil {
			return 0, err
		}
	}
	reps := max(1, 2_000_000/max(len(ci.reads), 1))
	ts := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, id := range ci.reads {
			nd, err := ix.ReadNode(id)
			if err != nil {
				return 0, err
			}
			sink += float64(nd.Len())
		}
	}
	te := time.Now()
	r.lv["index.readnode_ns"] = float64(te.Sub(ts).Nanoseconds()) / float64(reps*len(ci.reads))
	r.tr.add("index.readnode", root, 0, ts, te)

	if err := r.kernels(ix, ci.reads, fns, root); err != nil {
		return 0, err
	}
	bm, err := r.batches(ix, fns, ans, root)
	if err != nil {
		return 0, err
	}
	mismatches += bm

	sky := skyline.New(ix, skyline.MaintainPlist, &stats.Counters{})
	ts = time.Now()
	if err := sky.Compute(); err != nil {
		return 0, err
	}
	te = time.Now()
	r.lv["skyline.compute_ms"] = float64(te.Sub(ts).Nanoseconds()) / 1e6
	r.lv["skyline.max_size"] = float64(sky.Size())
	r.tr.add("skyline.compute", root, 0, ts, te)

	readUs := r.lv["index.nodes_per_query"] * r.lv["index.readnode_ns"] / 1e3
	r.lv["topk.self_us"] = r.lv["topk.search_us"] - readUs
	r.lv["server.overhead_us"] = r.serverUs - r.lv["topk.search_us"]
	return mismatches, nil
}

// kernels times the vec kernels directly over the node slabs the replayed
// queries visited, with the queries' own weights.
func (r *replay) kernels(ix index.ObjectIndex, reads []index.NodeID, fns []prefs.Function, root int64) error {
	d := ix.Dim()
	seen := map[index.NodeID]bool{}
	var leaves, his [][]float64
	leafElems, hiElems := 0, 0
	for _, id := range reads {
		if seen[id] {
			continue
		}
		seen[id] = true
		nd, err := ix.ReadNode(id)
		if err != nil {
			return err
		}
		if fl, ok := nd.(index.FlatLeaf); ok && nd.Leaf() {
			_, pts := fl.FlatItems()
			leaves = append(leaves, pts)
			leafElems += len(pts)
		} else if fi, ok := nd.(index.FlatInternal); ok && !nd.Leaf() {
			_, hi := fi.FlatRects()
			his = append(his, hi)
			hiElems += len(hi)
		}
	}
	const target = 20_000_000 // elements per kernel timing, ~10–50 ms each
	const q = 16
	ws := make([]float64, 0, q*d)
	for j := 0; j < q; j++ {
		ws = append(ws, fns[j%len(fns)].Weights...)
	}

	if leafElems > 0 {
		rounds := max(1, target/leafElems)
		ts := time.Now()
		for i := 0; i < rounds; i++ {
			w := fns[i%len(fns)].Weights
			for _, pts := range leaves {
				for p := 0; p+d <= len(pts); p += d {
					dot, sum := vec.DotSum(w, pts[p:p+d])
					sink += dot + sum
				}
			}
		}
		te := time.Now()
		r.lv["vec.dotsum_ns_per_elem"] = float64(te.Sub(ts).Nanoseconds()) / float64(rounds*leafElems)
		r.tr.add("vec.DotSum", root, 0, ts, te)

		out := make([]float64, 0)
		sums := make([]float64, 0)
		rounds = max(1, target/(q*leafElems))
		ts = time.Now()
		for i := 0; i < rounds; i++ {
			for _, pts := range leaves {
				m := len(pts) / d
				out, sums = grow(out, q*m), grow(sums, m)
				vec.DotSumBatch(ws, q, d, pts, out, sums)
				sink += out[0]
			}
		}
		te = time.Now()
		r.lv["vec.dotsumbatch_ns_per_elem"] = float64(te.Sub(ts).Nanoseconds()) / float64(rounds*q*leafElems)
		r.tr.add("vec.DotSumBatch", root, 0, ts, te)
	}
	if hiElems > 0 {
		out := make([]float64, 0)
		rounds := max(1, target/(q*hiElems))
		ts := time.Now()
		for i := 0; i < rounds; i++ {
			for _, hi := range his {
				out = grow(out, q*len(hi)/d)
				vec.MBRBoundsBatch(ws, q, d, hi, out)
				sink += out[0]
			}
		}
		te := time.Now()
		r.lv["vec.mbrboundsbatch_ns_per_elem"] = float64(te.Sub(ts).Nanoseconds()) / float64(rounds*q*hiElems)
		r.tr.add("vec.MBRBoundsBatch", root, 0, ts, te)
	}

	// DeltaBound between consecutive queries' weights over the root's box,
	// as a nudged session would evaluate it.
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, o := range r.objs {
		for j, v := range o.Values {
			lo[j], hi[j] = math.Min(lo[j], v), math.Max(hi[j], v)
		}
	}
	const calls = 1_000_000
	ts := time.Now()
	for i := 0; i < calls; i++ {
		sink += vec.DeltaBound(fns[i%len(fns)].Weights, fns[(i+1)%len(fns)].Weights, lo, hi)
	}
	te := time.Now()
	r.lv["vec.deltabound_ns"] = float64(te.Sub(ts).Nanoseconds()) / calls
	r.tr.add("vec.DeltaBound", root, 0, ts, te)
	return nil
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// batches replays the queries in batches of 16 through BatchSearcher.Run and
// Server.TopKManyAppend, alternating batch by batch like the single-query
// replay, each answer checked against the per-query one.
func (r *replay) batches(ix index.ObjectIndex, fns []prefs.Function, want [][]topk.Result, root int64) (int, error) {
	const q = 16
	nb := len(fns) / q
	if nb == 0 {
		return 0, nil
	}
	mismatches := 0
	ks := make([]int, q)
	for j := range ks {
		ks[j] = r.k
	}
	pf := make([]prefs.Preference, q)
	got := make([][]topk.Result, q)
	for j := range got {
		got[j] = make([]topk.Result, 0, r.k)
	}
	var (
		c                 stats.Counters
		dst               []prefmatch.Assignment
		offs              []int
		batchNs, serverNs int64
	)
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		for b := 0; b < nb; b++ {
			for j := range pf {
				pf[j] = &fns[b*q+j]
			}
			ts := time.Now()
			bs := topk.AcquireBatchSearcher(ix, pf, ks, &c)
			err := bs.Run()
			if err == nil {
				for j := range pf {
					got[j] = bs.AppendResults(j, got[j][:0])
				}
			}
			bs.Release()
			te := time.Now()
			if err != nil {
				return 0, err
			}
			qs := r.queries[b*q : b*q+q]
			ts2 := time.Now()
			dst, offs, err = r.srv.TopKManyAppend(dst[:0], offs[:0], qs, r.k)
			te2 := time.Now()
			if err != nil {
				return 0, err
			}
			if pass == 0 {
				continue
			}
			batchNs += te.Sub(ts).Nanoseconds()
			serverNs += te2.Sub(ts2).Nanoseconds()
			r.tr.add("topk.BatchSearcher.Run", root, int64(b), ts, te)
			r.tr.add("server.TopKManyAppend", root, int64(b), ts2, te2)
			for j := range qs {
				if !sameTopK(got[j], want[b*q+j]) || !sameResults(dst[offs[j]:offs[j+1]], want[b*q+j]) {
					mismatches++
				}
			}
		}
	}
	perQuery := func(ns int64) float64 { return float64(ns) / 1e3 / float64(nb*q) }
	r.lv["topk.batch_us_per_query"] = perQuery(batchNs)
	r.lv["server.batch_overhead_us_per_query"] = perQuery(serverNs) - perQuery(batchNs)
	return mismatches, nil
}

// sameResults reports whether the server's answer is the layer's answer bit
// for bit: the same objects, in the same order, with identical scores.
func sameResults(a []prefmatch.Assignment, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObjectID != int(b[i].ID) || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func sameTopK(a, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// reconcile decomposes a replayed Server.TopK into the layers under it. For
// a workload whose requests are single Server.TopK calls (label non-empty)
// it also names the residue between the replay and the live loop, both as
// means, since only means add up.
func (r *replay) reconcile(label string, live latencies, lateP50 float64) string {
	lv := r.lv
	d := float64(len(r.objs[0].Values))
	vecUs := lv["topk.score_evals_per_query"] * d * lv["vec.dotsum_ns_per_elem"] / 1e3
	readUs := lv["index.nodes_per_query"] * lv["index.readnode_ns"] / 1e3
	line := fmt.Sprintf("reconcile: Server.TopK %.2f us (replay mean) = server %.2f + topk.self %.2f [vec %.2f + heap/other %.2f] + index %.2f [%.1f reads x %.1f ns]",
		r.serverUs, lv["server.overhead_us"], lv["topk.self_us"], vecUs, lv["topk.self_us"]-vecUs,
		readUs, lv["index.nodes_per_query"], lv["index.readnode_ns"])
	if label == "" {
		return line
	}
	mean := live.mean()
	return line + fmt.Sprintf("; %s mean %.2f us (p50_us %.2f), residue %+.2f us: queueing behind earlier requests and the live loop's colder caches (client.late_p50_us %.2f)",
		label, mean, live.pct(0.5), mean-r.serverUs, lateP50)
}
