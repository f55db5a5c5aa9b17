package sharded

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"prefmatch/internal/cancel"
	"prefmatch/internal/core"
	"prefmatch/internal/guard"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// This file is the shard-parallel matching wave. The engine's global decision
// loop (core.NewWaveMatcher) runs once, at the merge point, with capacities
// resolved globally; all object-index work is answered by per-shard
// read-only snapshots processed by a worker pool:
//
//   - the candidate-driven algorithms (BruteForce, BruteForceIncremental,
//     Chain) consume waveObjects, which keeps one lazily-opened incremental
//     ranked stream per (function, shard), claims shards in descending
//     order of the function's upper bound over the shard MBR, and never
//     opens a shard whose bound cannot beat the function's current best
//     head (counted in stats.Counters.ShardsPruned — the same exact
//     pruning a ranked walk over the synthetic root applies per query);
//   - SB consumes waveSkyline, which maintains one BBS skyline per shard
//     (computed and updated concurrently) and merges them: an object is on
//     the global skyline iff no global member of another shard dominates
//     it, and suppressed members re-qualify exactly when their recorded
//     dominator is matched away.
//
// Results — assignments, emission order, scores — are bit-identical to the
// single-index matchers for every shard count, partitioner and worker
// count, because every merge decision is resolved by the same
// deterministic preference orders the single-index loops use. The merged
// counters are deterministic too (independent of the worker count): each
// stream and each shard charges a private sink, and the sinks are merged
// in a fixed order when the wave completes. Work-shaped counters
// (node reads, score evaluations) reflect the per-shard fan-out, not the
// single combined traversal.

// errNoSnapshots builds the descriptive error for operations that need
// per-shard read-only views, naming index.Snapshotter and the offending
// shard (the NewServer error style).
func (ix *Index) errNoSnapshots(op string) error {
	for s, shard := range ix.shards {
		if _, ok := shard.(index.Snapshotter); !ok {
			return fmt.Errorf("sharded: %s needs read-only shard views, but shard %d (%T) does not implement index.Snapshotter (paged shards mutate their LRU buffer on every read; build the shards on the memory backend)", op, s, shard)
		}
	}
	return fmt.Errorf("sharded: %s needs read-only shard views, but the shards do not implement index.Snapshotter", op)
}

// waveClamp normalises a worker count against a job count: at least 1, at
// most jobs (no goroutine idle from the start).
func waveClamp(workers, jobs int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// fanIndexed runs jobs 0..n-1 across workers goroutines pulling from a
// shared cursor, collecting one error per job (deterministic placement).
// Every job runs under guard.Safe, so a panic in one job becomes that
// job's error instead of killing the process or abandoning the WaitGroup
// barrier — the recover wraps exactly the job invocation, leaving the
// worker loop and its Done defer intact.
func fanIndexed(n, workers int, job func(int) error) error {
	workers = waveClamp(workers, n)
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			i := i
			errs[i] = guard.Safe(func() error { return job(i) })
		}
		return errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = guard.Safe(func() error { return job(i) })
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// --- Candidate streams (BruteForce / BruteForceIncremental / Chain) ------

// fanShard is one shard in a function's claim order: descending upper
// bound, ties by shard number.
type fanShard struct {
	shard int
	bound float64
}

// waveStream is one (function, shard) incremental ranked stream: a private
// shard snapshot, a private counter sink (merged deterministically when the
// wave completes), and the stream's current head.
type waveStream struct {
	sink   *stats.Counters
	search *topk.Searcher
	head   topk.Result
	has    bool
	done   bool
}

// fnFan is one function's merged view: its shard claim order and the
// prefix of streams opened so far. Streams beyond opened were so far pruned
// by their MBR bound; consulted distinguishes real pruning decisions from
// functions the wave never asked about (a Chain wave that runs out of
// objects never consults most seeds — their unopened shards were not
// pruned, they were simply never needed).
type fnFan struct {
	order     []fanShard
	streams   []waveStream
	opened    int
	consulted bool
}

// waveObjects implements core.ObjectSource by merging per-shard ranked
// streams. Removal is logical — a removed set every stream skips — so the
// shards are never mutated and the wave can run on snapshots of a live
// serving index. Capacities never reach this layer: the core loop resolves
// them at the merge point and only reports exhausted objects here.
type waveObjects struct {
	ix        *Index
	fns       []prefs.Function
	workers   int
	tok       cancel.Token // armed on every stream searcher as it opens
	fans      []fnFan
	built     bool
	removed   map[index.ObjID]bool
	remaining int
}

var (
	_ core.ObjectSource = (*waveObjects)(nil)
	_ core.BatchPrimer  = (*waveObjects)(nil)
)

func newWaveObjects(ix *Index, fns []prefs.Function, workers int, tok cancel.Token) *waveObjects {
	return &waveObjects{
		ix:        ix,
		fns:       fns,
		workers:   workers,
		tok:       tok,
		removed:   map[index.ObjID]bool{},
		remaining: ix.Len(),
	}
}

// buildFans derives every function's shard claim order from the synthetic
// root entries. Deferred until the first candidate request so that invalid
// inputs are rejected by the core validation before any bound is evaluated.
func (w *waveObjects) buildFans() {
	if w.built {
		return
	}
	w.fans = make([]fnFan, len(w.fns))
	entries := w.ix.rootEntries()
	for f := range w.fns {
		order := make([]fanShard, len(entries))
		for i, e := range entries {
			order[i] = fanShard{shard: e.shard, bound: w.fns[f].UpperBound(e.rect)}
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].bound != order[j].bound {
				return order[i].bound > order[j].bound
			}
			return order[i].shard < order[j].shard
		})
		w.fans[f] = fnFan{order: order, streams: make([]waveStream, len(order))}
	}
	w.built = true
}

func (w *waveObjects) Dim() int { return w.ix.dim }
func (w *waveObjects) Len() int { return w.remaining }

// Remove withdraws an exhausted object logically; every stream skips it
// from now on.
func (w *waveObjects) Remove(id index.ObjID, p vec.Point) error {
	if w.removed[id] {
		return index.ErrNotFound
	}
	w.removed[id] = true
	w.remaining--
	return nil
}

// advance moves a stream's head to its best not-removed object; on
// exhaustion the searcher goes back to the pool (the sink stays, it is
// merged at wave end).
func (w *waveObjects) advance(st *waveStream) error {
	if st.done || (st.has && !w.removed[st.head.ID]) {
		return nil
	}
	for {
		r, ok, err := st.search.Next()
		if err != nil {
			return err
		}
		if !ok {
			st.done, st.has = true, false
			st.search.Release()
			st.search = nil
			return nil
		}
		if w.removed[r.ID] {
			continue
		}
		st.head, st.has = r, true
		return nil
	}
}

// open starts stream idx of function f's fan on a fresh shard snapshot with
// a private sink.
func (w *waveObjects) open(f, idx int) {
	fan := &w.fans[f]
	st := &fan.streams[idx]
	snap := w.ix.shards[fan.order[idx].shard].(index.Snapshotter).Snapshot()
	st.sink = &stats.Counters{}
	snap.SetCounters(st.sink)
	st.search = topk.AcquireSearcher(snap, w.fns[f], st.sink)
	st.search.SetCancel(w.tok)
}

// bestHead returns the best current head across the opened streams, under
// the canonical ranked order.
func (fan *fnFan) bestHead() (topk.Result, bool) {
	var best topk.Result
	has := false
	for i := 0; i < fan.opened; i++ {
		st := &fan.streams[i]
		if st.has && (!has || topk.Better(st.head, best)) {
			best, has = st.head, true
		}
	}
	return best, has
}

// ensure re-validates function f's stream heads against the removed set and
// opens further shards while an unopened bound could still beat (or tie)
// the best head. A bound equal to the best score must be opened — an
// equal-score object can win the sum/ID tie-break; a strictly lower bound
// prunes the shard and, because the order is bound-descending, every shard
// after it. The decisions depend only on this function's own state, so
// concurrent ensures of different functions are race-free and the work set
// is deterministic.
func (w *waveObjects) ensure(f int) error {
	fan := &w.fans[f]
	fan.consulted = true
	for i := 0; i < fan.opened; i++ {
		if err := w.advance(&fan.streams[i]); err != nil {
			return err
		}
	}
	best, has := fan.bestHead()
	for fan.opened < len(fan.order) {
		if has && fan.order[fan.opened].bound < best.Score {
			break
		}
		w.open(f, fan.opened)
		st := &fan.streams[fan.opened]
		fan.opened++
		if err := w.advance(st); err != nil {
			return err
		}
		if st.has && (!has || topk.Better(st.head, best)) {
			best, has = st.head, true
		}
	}
	return nil
}

// Best returns function f's best remaining object across all shards.
func (w *waveObjects) Best(f int) (core.Candidate, bool, error) {
	w.buildFans()
	if err := w.ensure(f); err != nil {
		return core.Candidate{}, false, err
	}
	best, has := w.fans[f].bestHead()
	if !has {
		return core.Candidate{}, false, nil
	}
	return core.Candidate{ObjID: best.ID, Point: best.Point, Sum: best.Point.Sum(), Score: best.Score}, true, nil
}

// Prime refreshes many functions' candidates across the worker pool: each
// function's ensure is an independent sequential computation over private
// streams (the removed set is only read), so the fan-out is race-free.
func (w *waveObjects) Prime(fnIdxs []int) error {
	w.buildFans()
	return fanIndexed(len(fnIdxs), w.workers, func(i int) error {
		return w.ensure(fnIdxs[i])
	})
}

// finish releases the live searchers and merges every stream sink and the
// pruning tally into c, in fixed (function, claim-order) order. Only
// consulted functions contribute to ShardsPruned: their unopened shards
// were each rejected by a bound-vs-best-head decision.
func (w *waveObjects) finish(c *stats.Counters) {
	for f := range w.fans {
		fan := &w.fans[f]
		for i := 0; i < fan.opened; i++ {
			st := &fan.streams[i]
			if st.search != nil {
				st.search.Release()
				st.search = nil
			}
			c.Add(st.sink)
		}
		if fan.consulted {
			c.ShardsPruned += int64(len(fan.order) - fan.opened)
		}
	}
}

// --- Merged skyline (SB) -------------------------------------------------

// suppressedObj is a shard-skyline member kept off the global skyline by a
// global member of another shard; it re-qualifies exactly when that witness
// is matched away. (A member of the object's own shard can never be the
// blocker: two members of one shard's skyline are mutually non-dominated,
// and every cross-shard dominator chain ends at a global member of another
// shard.)
type suppressedObj struct {
	obj     *skyline.Object
	shard   int
	witness index.ObjID
}

// shardObj is a merge candidate: a shard-skyline member to test against the
// global skyline.
type shardObj struct {
	obj   *skyline.Object
	shard int
}

// waveSkyline implements core.SkylineSource over per-shard BBS maintainers:
// Compute and Remove fan the per-shard work across the worker pool, then a
// sequential merge decides global membership. Global members never become
// dominated by later promotions (any such dominator would have dominated
// them all along), so the global skyline only changes at removals — which
// is what makes the incremental merge exact.
type waveSkyline struct {
	ix      *Index
	workers int
	c       *stats.Counters // merge-point work: dominance checks, global skyline size

	maints     []*skyline.Maintainer
	sinks      []*stats.Counters
	global     []*skyline.Object   // admission order
	dom        skyline.DomSet      // global, for the dominance tests
	shardOf    map[index.ObjID]int // global member -> owning shard
	suppressed []suppressedObj
}

var _ core.SkylineSource = (*waveSkyline)(nil)

func newWaveSkyline(ix *Index, mode skyline.Mode, workers int, c *stats.Counters) *waveSkyline {
	w := &waveSkyline{
		ix:      ix,
		workers: workers,
		c:       c,
		maints:  make([]*skyline.Maintainer, len(ix.shards)),
		sinks:   make([]*stats.Counters, len(ix.shards)),
		shardOf: map[index.ObjID]int{},
	}
	for s, shard := range ix.shards {
		snap := shard.(index.Snapshotter).Snapshot()
		w.sinks[s] = &stats.Counters{}
		snap.SetCounters(w.sinks[s])
		w.maints[s] = skyline.New(snap, mode, w.sinks[s])
	}
	return w
}

func (w *waveSkyline) Skyline() []*skyline.Object { return w.global }
func (w *waveSkyline) Size() int                  { return len(w.global) }

// Compute runs the per-shard BBS passes concurrently, then merges.
func (w *waveSkyline) Compute() error {
	if err := fanIndexed(len(w.maints), w.workers, func(s int) error {
		return w.maints[s].Compute()
	}); err != nil {
		return err
	}
	var cands []shardObj
	for s, m := range w.maints {
		for _, o := range m.Skyline() {
			cands = append(cands, shardObj{obj: o, shard: s})
		}
	}
	w.admit(cands, nil)
	w.c.ObserveSkylineSize(len(w.global))
	return nil
}

// admit tests candidates against the global skyline in best-corner-distance
// order — a dominator always has a strictly smaller distance, so every
// candidate's potential blockers (earlier candidates included) are already
// settled when it is examined. Survivors join the global skyline (and
// added, when requested); the rest are parked with their witness. Any
// dominating global member is a valid witness: the candidate re-qualifies
// only once no global member dominates it, whichever one blocked it.
func (w *waveSkyline) admit(cands []shardObj, added *[]*skyline.Object) {
	sort.Slice(cands, func(i, j int) bool {
		di, dj := cands[i].obj.Point.BestCornerDist(), cands[j].obj.Point.BestCornerDist()
		if di != dj {
			return di < dj
		}
		return cands[i].obj.ID < cands[j].obj.ID
	})
	for _, cd := range cands {
		if g := w.dom.Dominator(cd.obj.Point, w.c); g != nil {
			w.suppressed = append(w.suppressed, suppressedObj{obj: cd.obj, shard: cd.shard, witness: g.ID})
			continue
		}
		w.shardOf[cd.obj.ID] = cd.shard
		w.global = append(w.global, cd.obj)
		w.dom.Insert(cd.obj)
		if added != nil {
			*added = append(*added, cd.obj)
		}
	}
}

// Remove deletes matched global members, runs the affected shards'
// maintenance concurrently, and re-merges: the candidates are the shards'
// newly promoted members plus every suppressed member whose witness was
// just removed.
func (w *waveSkyline) Remove(ids []index.ObjID) ([]*skyline.Object, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	perShard := make([][]index.ObjID, len(w.maints))
	var affected []int
	removedSet := make(map[index.ObjID]bool, len(ids))
	for _, id := range ids {
		s, ok := w.shardOf[id]
		if !ok || removedSet[id] {
			return nil, fmt.Errorf("sharded: object %d is not a global skyline member", id)
		}
		if len(perShard[s]) == 0 {
			affected = append(affected, s)
		}
		perShard[s] = append(perShard[s], id)
		removedSet[id] = true
	}
	for id := range removedSet {
		delete(w.shardOf, id)
	}

	promoted := make([][]*skyline.Object, len(affected))
	if err := fanIndexed(len(affected), w.workers, func(i int) error {
		var err error
		promoted[i], err = w.maints[affected[i]].Remove(perShard[affected[i]])
		return err
	}); err != nil {
		return nil, err
	}

	kept := w.global[:0]
	for _, g := range w.global {
		if !removedSet[g.ID] {
			kept = append(kept, g)
		}
	}
	w.global = kept
	w.dom.Drop(removedSet)

	var cands []shardObj
	for i, s := range affected {
		for _, o := range promoted[i] {
			cands = append(cands, shardObj{obj: o, shard: s})
		}
	}
	keptSup := w.suppressed[:0]
	for _, sp := range w.suppressed {
		if removedSet[sp.witness] {
			cands = append(cands, shardObj{obj: sp.obj, shard: sp.shard})
		} else {
			keptSup = append(keptSup, sp)
		}
	}
	w.suppressed = keptSup

	var added []*skyline.Object
	w.admit(cands, &added)
	w.c.ObserveSkylineSize(len(w.global))
	return added, nil
}

// finish merges the per-shard sinks into c, in shard order.
func (w *waveSkyline) finish(c *stats.Counters) {
	for _, sink := range w.sinks {
		c.Add(sink)
	}
}

// --- Wave matcher --------------------------------------------------------

// waveMatcher finalises the wave when it completes (or fails): searchers go
// back to the pool and every per-shard and per-stream sink is merged into
// the wave's counter sink in a fixed order, so the totals are deterministic
// for any worker count.
type waveMatcher struct {
	core.Matcher
	c      *stats.Counters
	finish func(*stats.Counters)
	done   bool
}

func (m *waveMatcher) Next() (core.Pair, bool, error) {
	p, ok, err := m.Matcher.Next()
	if (!ok || err != nil) && !m.done {
		m.done = true
		m.finish(m.c)
	}
	return p, ok, err
}

// NewWaveMatcher builds a progressive shard-parallel matcher for any of the
// four algorithms: the algorithm's global decision loop runs at the merge
// point (with capacities resolved there) while per-shard snapshots answer
// the object-index work across workers goroutines (0 or negative means
// GOMAXPROCS). The emitted assignments, order and scores are bit-identical
// to the same algorithm on a single index; unlike the single-index
// BruteForce and Chain, the wave never mutates the shards, so the composite
// stays reusable. Work is charged to opts.Counters (a fresh sink when nil,
// exposed via Counters()); the per-shard work lands there when the wave
// completes — a matcher abandoned before exhaustion reports only the
// merge-point work and keeps its pooled searchers (the same caveat as
// NewMatcher's counter redirect: drain the matcher to settle the
// accounting). Requires every shard to implement index.Snapshotter.
func (ix *Index) NewWaveMatcher(fns []prefs.Function, opts *core.Options, workers int) (core.Matcher, error) {
	o := core.Options{}
	if opts != nil {
		o = *opts
	}
	if !ix.canSnap {
		return nil, ix.errNoSnapshots("shard-parallel matching")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if o.Counters == nil {
		o.Counters = &stats.Counters{}
	}
	var src core.WaveSources
	var finish func(*stats.Counters)
	switch o.Algorithm {
	case core.AlgSB:
		sky := newWaveSkyline(ix, o.SkylineMode, workers, o.Counters)
		src.Skyline, finish = sky, sky.finish
	default:
		// The candidate-driven algorithms; an unknown algorithm is rejected
		// by the core validation below before any stream is opened.
		obj := newWaveObjects(ix, fns, workers, o.Cancel)
		src.Objects, finish = obj, obj.finish
	}
	inner, err := core.NewWaveMatcher(src, ix.dim, fns, &o)
	if err != nil {
		return nil, err
	}
	return &waveMatcher{Matcher: inner, c: o.Counters, finish: finish}, nil
}

// MatchWave runs one complete shard-parallel matching wave and returns the
// stable pairs in emission order, merging all of the wave's accounting into
// c (nil means the composite's own sink) when it succeeds. See
// NewWaveMatcher for the contract.
func (ix *Index) MatchWave(fns []prefs.Function, opts *core.Options, workers int, c *stats.Counters) ([]core.Pair, error) {
	if c == nil {
		c = ix.c
	}
	o := core.Options{}
	if opts != nil {
		o = *opts
	}
	o.Counters = &stats.Counters{}
	m, err := ix.NewWaveMatcher(fns, &o, workers)
	if err != nil {
		return nil, err
	}
	pairs, err := core.MatchAll(m)
	if err != nil {
		return nil, err
	}
	c.Add(o.Counters)
	return pairs, nil
}
