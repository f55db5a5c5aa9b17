package prefmatch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prefmatch/internal/cancel"
	"prefmatch/internal/guard"
	"prefmatch/internal/index"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/rescache"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// Server indexes a slow-changing object inventory once and serves many
// preference evaluations against it concurrently: full matching waves
// (Match, MatchMany), per-user top-k queries (TopK, TopKMany,
// TopKMonotone) and skyline computations.
//
// A Server runs on the Memory backend family — the only backends whose
// node reads are free of side effects — and hands every request a
// read-only snapshot of the index with its own work counters, so requests
// never synchronise with each other on the hot path. The only shared write
// is the merge of each request's counters into the server totals (Stats)
// after the request completes. All methods are safe for concurrent use.
//
// With Options.Backend set to Dynamic, the inventory is no longer
// slow-changing: Insert, Update and Remove mutate the live index while
// requests keep serving. Each write lands in a delta R-tree write tier and
// publishes a new epoch; each request re-pins the latest epoch when it
// starts and reads it consistently to completion, while a background merge
// (Options.MergeThreshold, Options.MergeInterval, or manual Compact)
// re-packs the write tier into a fresh base arena. Reads stay
// allocation-free throughout. On every other backend the write methods
// return an error wrapping index.ErrReadOnly.
//
// With Options.Shards set, the server runs on the sharded composite over
// memory (or dynamic) shards: top-k, session, skyline and matching requests
// walk a composite snapshot exactly as they walk a single index, with
// results bit-identical to the single-index ones. Shards whose bounding box
// cannot contribute are skipped (Stats.ShardsPruned counts them), and an SB
// wave's dominance tests keep one cell per shard. Over dynamic shards,
// writes are routed by the partitioner and each shard rotates epochs
// independently.
//
// Matching waves are restricted to the skyline-based algorithm, which never
// mutates the object index; requesting BruteForce or Chain returns an
// error, as does deleting from a snapshot (index.ErrReadOnly) if an
// internal invariant ever let one through.
type Server struct {
	ix      servingIndex
	sh      *sharded.Index // non-nil for a sharded index: exports the per-shard load metrics
	scratch sync.Pool      // *serveScratch: pooled per-request plumbing

	// capacities is the capacity map in effect for new requests, replaced
	// copy-on-write by the write path (Insert/Update/Remove) so in-flight
	// requests keep the map they started with and never race the writer.
	capacities atomic.Pointer[map[index.ObjID]int]
	wmu        sync.Mutex // serialises Insert/Update/Remove/Compact

	mu      sync.Mutex
	agg     stats.Counters
	elapsed time.Duration
	served  int64

	// om is the server's observability surface: per-op latency histograms,
	// stage histograms, slow-query log. Always non-nil; every recording
	// method is allocation-free.
	om *serverMetrics

	// Lifecycle and admission state (see lifecycle.go). state advances
	// serving → draining → closed; inflight counts admitted requests;
	// gate is the MaxInFlight semaphore (nil means unlimited); closing is
	// closed when Close begins, unblocking waiters queued on the gate.
	state      atomic.Int32
	inflight   atomic.Int64
	gate       chan struct{}
	maxWait    time.Duration
	drainBound time.Duration
	closing    chan struct{}
	closeOnce  sync.Once
	closeErr   error

	// Preference-session state: the epoch-keyed result cache shared by all
	// sessions (nil when Options.ResultCacheEntries is negative) and the
	// registry of open sessions, so Close can mark them closed during the
	// drain (see OpenSession, lifecycle.go).
	rc       *rescache.Cache
	sessMu   sync.Mutex
	sessions map[*Session]struct{}

	adminMu sync.Mutex
	admin   *adminState
}

// caps returns the capacity map in effect for a request starting now (nil
// when every object has the default capacity 1).
func (s *Server) caps() map[index.ObjID]int {
	if m := s.capacities.Load(); m != nil {
		return *m
	}
	return nil
}

// serveScratch is the per-request plumbing a read-only request needs — a
// snapshot wired to a private counter sink, plus the ranked search's
// reusable buffers — pooled so a steady-state request allocates nothing.
// Reusing a snapshot across requests is sound on every serving backend: mem
// views stay valid forever under the freeze contract, while dynamic and
// sharded-over-dynamic views pin an epoch — pin re-pins the latest one,
// allocation-free, and the request then reads that epoch consistently
// however writers and background merges rotate underneath it.
type serveScratch struct {
	snap    index.ObjectIndex
	refresh func()                // re-pins the latest epoch; nil on non-rotating backends
	settle  func(*stats.Counters) // charges the shard reads since pin; nil when unsharded
	c       stats.Counters
	arena   vec.Point          // normalised query weights
	fnvals  []prefs.Function   // linear batch functions, weights aliasing arena
	fns     []prefs.Preference // the batch: *Function views of fnvals, or one monotone adapter
	qids    []int              // query ID per function, labelling its assignments
	ks      []int
	rbuf    []topk.Result // searchSnapshot output, flat
	roffs   []int         // searchSnapshot output boundaries, one per function plus the end
	offs    []int         // per-query boundaries for callers without an offsets buffer
}

// getScratch takes a pooled scratch without pinning it: validation needs
// only its arena.
func (s *Server) getScratch() *serveScratch { return s.scratch.Get().(*serveScratch) }

// pin zeroes the scratch's counter sink and re-pins its snapshot to the
// latest epoch.
func (sc *serveScratch) pin() {
	sc.c = stats.Counters{}
	if sc.refresh != nil {
		sc.refresh()
	}
}

func (s *Server) releaseScratch(sc *serveScratch) {
	sc.arena = sc.arena[:0]
	sc.fnvals = sc.fnvals[:0]
	clear(sc.fns) // drop monotone adapters so the pool cannot pin a caller's preference
	sc.fns = sc.fns[:0]
	sc.qids = sc.qids[:0]
	s.scratch.Put(sc)
}

// servingIndex is what a Server needs from its backend: the traversal
// surface plus concurrent read-only snapshots.
type servingIndex interface {
	index.ObjectIndex
	index.Snapshotter
}

// asServing checks that ix can hand out concurrent read-only views,
// returning a descriptive error — never a silent fallback — when it cannot.
func asServing(ix index.ObjectIndex) (servingIndex, error) {
	type snapProbe interface{ CanSnapshot() bool }
	if p, ok := ix.(snapProbe); ok && !p.CanSnapshot() {
		return nil, fmt.Errorf("prefmatch: %T cannot serve concurrently: its shards do not implement index.Snapshotter (paged shards mutate their LRU buffer on every read; build the shards on the Memory backend)", ix)
	}
	s, ok := ix.(servingIndex)
	if !ok {
		return nil, fmt.Errorf("prefmatch: %T cannot serve concurrently: it does not implement index.Snapshotter (the paged backend mutates its LRU buffer on every read; build on the Memory backend)", ix)
	}
	return s, nil
}

// NewServer validates and indexes the objects for concurrent serving.
// Options may be nil. PageSize sets the node fan-outs and Shards/ShardBy
// select the sharded composite; Backend Dynamic (with its
// MergeThreshold/MergeInterval knobs) builds a live-mutable server, any
// other Backend is coerced to Memory, because a Server needs side-effect-free
// reads (the paged LRU buffer disqualifies itself). BufferFraction and
// BufferPages are ignored. The algorithm-related fields are taken per Match
// call instead.
func NewServer(objects []Object, opts *Options) (*Server, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(objects) == 0 {
		return nil, errNoObjects
	}
	d, items, capacities, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	sopts := *opts
	if sopts.Backend != Dynamic {
		sopts.Backend = Memory
	}
	ix, _, err := buildIndex(items, d, &sopts)
	if err != nil {
		return nil, err
	}
	return newServer(ix, capacities, &sopts)
}

// NewServerFromIndex serves over an already-built reusable Index, sharing
// its storage instead of re-indexing the objects. The index must be able to
// hand out read-only snapshots — it must have been built on the Memory
// backend (sharded or not); a paged-built index returns a descriptive
// error. The caller must not mutate or rebuild the index while the server
// is in use (the Snapshotter freeze contract).
func NewServerFromIndex(ix *Index) (*Server, error) {
	return newServer(ix.ix, ix.capacities, nil)
}

func newServer(ix index.ObjectIndex, capacities map[index.ObjID]int, opts *Options) (*Server, error) {
	serving, err := asServing(ix)
	if err != nil {
		return nil, err
	}
	s := &Server{ix: serving, closing: make(chan struct{}), sessions: map[*Session]struct{}{}}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts == nil || opts.ResultCacheEntries >= 0 {
		entries := 0
		if opts != nil {
			entries = opts.ResultCacheEntries
		}
		s.rc = rescache.New(entries)
	}
	if opts != nil {
		if opts.MaxInFlight > 0 {
			s.gate = make(chan struct{}, opts.MaxInFlight)
		}
		s.maxWait = opts.MaxQueueWait
		s.drainBound = opts.DrainTimeout
	}
	if capacities != nil {
		s.capacities.Store(&capacities)
	}
	if sh, ok := ix.(*sharded.Index); ok {
		s.sh = sh
	}
	s.scratch.New = func() any {
		sc := &serveScratch{snap: s.ix.Snapshot()}
		if r, ok := sc.snap.(interface{ Refresh() }); ok {
			sc.refresh = r.Refresh
		}
		if st, ok := sc.snap.(interface{ SettleShardReads(*stats.Counters) }); ok {
			sc.settle = st.SettleShardReads
		}
		sc.snap.SetCounters(&sc.c)
		return sc
	}
	s.om = newServerMetrics(s, opts)
	if opts != nil && opts.AdminAddr != "" {
		if _, err := s.ServeAdmin(opts.AdminAddr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mutable returns the serving index's write surface, or an error wrapping
// index.ErrReadOnly when the server was built on a static backend.
func (s *Server) mutable() (index.MutableIndex, error) {
	err := index.ReadOnlyError("this server's static backend (build the server with Options{Backend: Dynamic} for live writes)")
	m, ok := s.ix.(index.MutableIndex)
	if !ok {
		return nil, err
	}
	if p, ok := s.ix.(interface{ CanMutate() bool }); ok && !p.CanMutate() {
		return nil, err
	}
	return m, nil
}

// validateObject is the write-path counterpart of convertObjects' per-object
// checks, returning the converted ID and a cloned point.
func (s *Server) validateObject(obj Object) (index.ObjID, vec.Point, error) {
	if err := checkObject(obj, s.ix.Dim()); err != nil {
		return 0, nil, err
	}
	return index.ObjID(obj.ID), vec.Point(obj.Values).Clone(), nil
}

// setCapacityLocked records obj's capacity (0 and 1 both mean the default
// single unit) by replacing the capacity map copy-on-write, so requests
// that already hold the old map are unaffected. Callers hold wmu.
func (s *Server) setCapacityLocked(id index.ObjID, capacity int) {
	cur := s.caps()
	_, present := cur[id]
	if capacity <= 1 && !present {
		return
	}
	next := make(map[index.ObjID]int, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if capacity > 1 {
		next[id] = capacity
	} else {
		delete(next, id)
	}
	s.capacities.Store(&next)
}

// Insert adds one object to the live index while serving continues: the
// write lands in the backend's delta tier and publishes a new epoch, so
// in-flight requests keep the epoch they pinned and new requests see the
// object. Requires the Dynamic backend (sharded or not); static servers
// return an error wrapping index.ErrReadOnly. Safe for concurrent use with
// all read methods and other writes. Writes pass the same admission gate
// as reads (ErrOverloaded, ErrClosed apply).
func (s *Server) Insert(obj Object) error {
	return s.insert(cancel.Token{}, obj)
}

func (s *Server) insert(tok cancel.Token, obj Object) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opInsert, obj.ID, &err)
	start := time.Now()
	m, err := s.mutable()
	if err != nil {
		s.om.fail(opInsert)
		return err
	}
	id, pt, err := s.validateObject(obj)
	if err != nil {
		s.om.fail(opInsert)
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	if err := m.Insert(id, pt); err != nil {
		s.om.fail(opInsert)
		return err
	}
	s.setCapacityLocked(id, obj.Capacity)
	s.om.observeOp(opInsert, time.Since(start))
	return nil
}

// Update moves an already-indexed object to new attribute values (and
// capacity) as one atomic step: no request observes the object absent.
// Returns index.ErrNotFound when the object is not indexed. Requires the
// Dynamic backend, like Insert.
func (s *Server) Update(obj Object) error {
	return s.update(cancel.Token{}, obj)
}

func (s *Server) update(tok cancel.Token, obj Object) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opUpdate, obj.ID, &err)
	start := time.Now()
	m, err := s.mutable()
	if err != nil {
		s.om.fail(opUpdate)
		return err
	}
	id, pt, err := s.validateObject(obj)
	if err != nil {
		s.om.fail(opUpdate)
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	if err := m.Update(id, pt); err != nil {
		s.om.fail(opUpdate)
		return err
	}
	s.setCapacityLocked(id, obj.Capacity)
	s.om.observeOp(opUpdate, time.Since(start))
	return nil
}

// Remove deletes one object from the live index by ID. Returns
// index.ErrNotFound when the object is not indexed. Requires the Dynamic
// backend, like Insert.
func (s *Server) Remove(id int) error {
	return s.remove(cancel.Token{}, id)
}

func (s *Server) remove(tok cancel.Token, id int) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opRemove, id, &err)
	start := time.Now()
	m, err := s.mutable()
	if err != nil {
		s.om.fail(opRemove)
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	p, ok := s.ix.(interface {
		PointOf(index.ObjID) (vec.Point, bool)
	})
	if !ok {
		s.om.fail(opRemove)
		return fmt.Errorf("prefmatch: %T accepts writes but cannot resolve objects by ID", s.ix)
	}
	pt, found := p.PointOf(index.ObjID(id))
	if !found {
		s.om.fail(opRemove)
		return index.ErrNotFound
	}
	if err := m.Delete(index.ObjID(id), pt); err != nil {
		s.om.fail(opRemove)
		return err
	}
	s.setCapacityLocked(index.ObjID(id), 0)
	s.om.observeOp(opRemove, time.Since(start))
	return nil
}

// Compact forces a synchronous write-tier merge: the delta and tombstones
// are re-packed into a fresh base arena and published as a new epoch (per
// shard, on a sharded server). The third merge-policy lever next to
// Options.MergeThreshold and Options.MergeInterval — call it before a read
// burst or after bulk writes. Requires the Dynamic backend, like Insert.
func (s *Server) Compact() error {
	return s.compact(cancel.Token{})
}

func (s *Server) compact(tok cancel.Token) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opCompact, -1, &err)
	start := time.Now()
	if _, err := s.mutable(); err != nil {
		s.om.fail(opCompact)
		return err
	}
	c, ok := s.ix.(interface{ Compact() })
	if !ok {
		s.om.fail(opCompact)
		return fmt.Errorf("prefmatch: %T accepts writes but has no write tier to compact", s.ix)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	c.Compact()
	s.om.observeOp(opCompact, time.Since(start))
	return nil
}

// Len returns the number of indexed objects.
func (s *Server) Len() int { return s.ix.Len() }

// Dim returns the number of attributes per object.
func (s *Server) Dim() int { return s.ix.Dim() }

// recordN merges one completed request's accounting into the server
// totals. A batched request answering n logical queries at once advances
// Served by n, so batching changes how the work is done, not how much
// serving the totals report.
func (s *Server) recordN(c *stats.Counters, elapsed time.Duration, n int) {
	s.mu.Lock()
	s.agg.Add(c)
	s.elapsed += elapsed
	s.served += int64(n)
	s.mu.Unlock()
}

// record settles a pooled request's shard reads into its counters (on a
// sharded server) and merges them into the server totals.
func (s *Server) record(sc *serveScratch, elapsed time.Duration, n int) {
	if sc.settle != nil {
		sc.settle(&sc.c)
	}
	s.recordN(&sc.c, elapsed, n)
}

// Stats returns the cumulative work of every request served so far, merged
// from the per-request counters. Elapsed is the sum of per-request wall
// clock, not the server's lifetime — with W workers it can exceed real time
// by up to a factor of W. On the Dynamic backend the Epoch, DeltaSize and
// MergesCompleted gauges report the live index's state as of this call.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	out := statsFromCounters(&s.agg, s.elapsed)
	s.mu.Unlock()
	if e, ok := s.ix.(interface{ Epoch() uint64 }); ok {
		out.Epoch = e.Epoch()
	}
	if d, ok := s.ix.(interface{ DeltaSize() int }); ok {
		out.DeltaSize = int64(d.DeltaSize())
	}
	if m, ok := s.ix.(interface{ MergesCompleted() int64 }); ok {
		out.MergesCompleted = m.MergesCompleted()
	}
	out.Shed = s.om.shed.Load()
	out.Canceled = s.om.canceled.Load()
	out.Panics = s.om.panics.Load()
	return out
}

// firstQID picks the representative query ID a batch request is logged
// under when it panics: the first query's ID, or -1 for an empty batch.
func firstQID(queries []Query) int {
	if len(queries) == 0 {
		return -1
	}
	return queries[0].ID
}

// Served returns the number of requests completed so far.
func (s *Server) Served() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// Match runs one skyline-based matching wave of queries against the shared
// index, exactly like Index.Match but safe to call concurrently: the wave
// runs on the calling goroutine over a pooled read-only snapshot with
// private counters. On a sharded server the snapshot is the composite, and
// the result is bit-identical to the unsharded wave. opts may be nil; the
// Algorithm field must be SkylineBased (the zero value) and storage fields
// are ignored.
func (s *Server) Match(queries []Query, opts *Options) (*Result, error) {
	return s.matchReq(cancel.Token{}, queries, opts)
}

// matchReq is Match behind the admission gate, with the request's
// cancellation token threaded into the wave loop.
func (s *Server) matchReq(tok cancel.Token, queries []Query, opts *Options) (_ *Result, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opMatch, firstQID(queries), &err)
	return s.match(tok, queries, opts)
}

// match runs one SB wave over a pooled scratch snapshot, as serve does:
// pin, walk charging the scratch's one counter sink, record. On a sharded
// server record settles the wave's shard reads into Stats.ShardsPruned and
// pm_shard_*, once per wave, and the Result's Stats include them. The
// caller has already passed the admission gate.
func (s *Server) match(tok cancel.Token, queries []Query, opts *Options) (*Result, error) {
	var tr reqTrace
	tr.begin(0)
	sc := s.getScratch()
	sc.pin()
	defer s.releaseScratch(sc)
	tr.mark(stagePin)
	res, err := matchWave(sc.snap, s.caps(), queries, opts, tok, &sc.c)
	tr.mark(stageTraverse)
	if err != nil {
		s.om.fail(opMatch)
		return nil, err
	}
	s.record(sc, res.Stats.Elapsed, 1)
	res.Stats = statsFromCounters(&sc.c, res.Stats.Elapsed)
	tr.mark(stageMerge)
	s.om.finish(opMatch, &tr, &sc.c, 1)
	return res, nil
}

// MatchMany evaluates independent matching waves across workers goroutines
// (0 or negative means GOMAXPROCS) and returns one Result per wave, in wave
// order. Each wave runs on one goroutine and is a complete stable matching
// of its queries against the full object set, identical to what a
// sequential Match of that wave returns; workers=1 stays fully sequential.
// If any wave fails, the joined errors are returned and the results are
// discarded.
func (s *Server) MatchMany(waves [][]Query, opts *Options, workers int) ([]*Result, error) {
	return s.matchMany(cancel.Token{}, waves, opts, workers)
}

func (s *Server) matchMany(tok cancel.Token, waves [][]Query, opts *Options, workers int) (_ []*Result, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opMatch, -1, &err)
	results := make([]*Result, len(waves))
	errs := make([]error, len(waves))
	fanOut(len(waves), workers, func(i int) {
		errs[i] = guard.Safe(func() error {
			var e error
			results[i], e = s.match(tok, waves[i], opts)
			return e
		})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// serve runs one read-only request (Skyline, a session's TopK) against a
// pooled snapshot — each pool entry owns one snapshot wired to its own
// counter sink, so a steady-state request allocates no plumbing — and, on
// success, merges its accounting into the server totals. It traces the
// stages after the caller's validation (pin, traversal, merge) into the
// op's histograms and the slow-query log. A request whose context fired
// before the traversal returned fails, even when the traversal (or a cache
// hit) completed. The recorded Stats.Elapsed is the traversal time alone.
func serve[T any](s *Server, op serverOp, tok cancel.Token, validate time.Duration, req func(sc *serveScratch) (T, error)) (T, error) {
	var tr reqTrace
	tr.begin(validate)
	sc := s.getScratch()
	sc.pin()
	defer s.releaseScratch(sc)
	tr.mark(stagePin)
	out, err := req(sc)
	tr.mark(stageTraverse)
	if err == nil {
		err = tok.Check("serve.emit")
	}
	if err != nil {
		s.om.fail(op)
		var zero T
		return zero, err
	}
	s.record(sc, tr.stages[stageTraverse], 1)
	tr.mark(stageMerge)
	s.om.finish(op, &tr, &sc.c, 1)
	return out, nil
}

// Every top-k request is a batch: validate into the pooled scratch's arena,
// pin, walk the pinned snapshot once per chunk of at most batchChunk queries
// (searchSnapshot), and emit. TopK and TopKMonotone are batches of one,
// TopKManyAppend is the flat append form, and TopKMany slices it. On a
// sharded server the snapshot is the composite, whose synthetic root prunes
// whole shards by MBR like any other subtree.

// batchChunk is how many queries one batch search answers: enough that the
// tree's upper levels are read once for dozens of functions, few enough
// that chunks still fan out across workers, the blocked scoring kernels
// stay in cache, and topk.BatchSearcher's usefulness masks stay exact.
const batchChunk = 64

// searchSnapshot is the one ranked search behind every known-k read: one
// pooled batch searcher walks the scratch's pinned snapshot once for every
// function, each wanting its k best, on the calling goroutine. It answers
// into sc.rbuf, one run per function delimited by sc.roffs, charging sc.c.
func searchSnapshot(sc *serveScratch, fns []prefs.Preference, k int, tok cancel.Token) error {
	sc.ks = sc.ks[:0]
	for range fns {
		sc.ks = append(sc.ks, k)
	}
	b := topk.AcquireBatchSearcher(sc.snap, fns, sc.ks, &sc.c)
	defer b.Release()
	b.SetCancel(tok)
	if err := b.Run(); err != nil {
		return err
	}
	sc.rbuf, sc.roffs = sc.rbuf[:0], sc.roffs[:0]
	for i := range fns {
		sc.roffs = append(sc.roffs, len(sc.rbuf))
		sc.rbuf = b.AppendResults(i, sc.rbuf)
	}
	sc.roffs = append(sc.roffs, len(sc.rbuf))
	return nil
}

// validateBatch validates the linear queries of one top-k request into sc:
// weights normalised into the arena, *Function views into sc.fns, labels
// into sc.qids. It runs before any k == 0 short-circuit, so k never changes
// what is accepted. With join set (TopKMany) every query's error is
// reported, joined; otherwise the first error is returned.
func (s *Server) validateBatch(sc *serveScratch, queries []Query, k int, join bool) error {
	if k < 0 && !join {
		return fmt.Errorf("prefmatch: negative k %d", k)
	}
	var errs []error
	for _, q := range queries {
		f, arena, err := appendQuery(sc.arena, q, s.ix.Dim())
		if k < 0 {
			err = fmt.Errorf("prefmatch: negative k %d", k)
		}
		if err != nil {
			if !join {
				return err
			}
			errs = append(errs, err)
			continue
		}
		sc.arena = arena
		sc.fnvals = append(sc.fnvals, f)
		sc.qids = append(sc.qids, q.ID)
	}
	// Box pointers, not values: *Function rides in the interface word, so a
	// warm scratch builds the whole batch without a single allocation. Taken
	// only after fnvals stops growing — appends may move the backing array.
	for i := range sc.fnvals {
		sc.fns = append(sc.fns, &sc.fnvals[i])
	}
	return errors.Join(errs...)
}

// runBatch answers the functions validated into sc, each wanting its k
// best, with sc pinned once for the call and one batch search per chunk of
// at most batchChunk, appending the rankings flat to dst with one offsets
// entry per query plus a final boundary. Each chunk is traced, recorded
// (Served advances by its width) and observed under op; validate, the
// caller's validation time, is observed once, with the first chunk.
func (s *Server) runBatch(tok cancel.Token, op serverOp, sc *serveScratch, validate time.Duration, k int, dst []Assignment, offsets []int) ([]Assignment, []int, error) {
	fns := sc.fns
	if k == 0 {
		if validate > 0 {
			s.om.stages[stageValidate].ObserveDuration(validate)
		}
		for range fns {
			offsets = append(offsets, len(dst))
		}
		return dst, append(offsets, len(dst)), nil
	}
	var tr reqTrace
	tr.begin(validate)
	sc.pin()
	tr.mark(stagePin)
	for lo := 0; lo < len(fns); lo += batchChunk {
		hi := min(lo+batchChunk, len(fns))
		err := searchSnapshot(sc, fns[lo:hi], k, tok)
		tr.mark(stageTraverse)
		if err == nil {
			// A read whose context fired during traversal fails, even when
			// the last node read completed.
			err = tok.Check("topk.emit")
		}
		if err != nil {
			s.om.fail(op)
			return dst, offsets, err
		}
		for i := lo; i < hi; i++ {
			offsets = append(offsets, len(dst))
			for _, r := range sc.rbuf[sc.roffs[i-lo]:sc.roffs[i-lo+1]] {
				dst = append(dst, Assignment{QueryID: sc.qids[i], ObjectID: int(r.ID), Score: r.Score})
			}
		}
		s.record(sc, tr.stages[stageTraverse], hi-lo)
		tr.mark(stageMerge)
		s.om.finish(op, &tr, &sc.c, hi-lo)
		sc.c = stats.Counters{} // the next chunk records only its own work
		tr.begin(0)
	}
	return dst, append(offsets, len(dst)), nil
}

// resultBuf sizes a buffer for n rankings of k (nil when k is 0).
func (s *Server) resultBuf(k, n int) []Assignment {
	if k <= 0 {
		return nil
	}
	return make([]Assignment, 0, n*min(k, s.ix.Len()))
}

// topKOne is the batch of one behind TopK, TopKMonotone and TopKPref: an
// admitted request, labelled qid, whose validate puts one function into the
// scratch. The returned slice is the call's one allocation; k == 0 returns
// nil.
func (s *Server) topKOne(tok cancel.Token, qid, k int, validate func(sc *serveScratch) error) (_ []Assignment, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opTopK, qid, &err)
	vstart := time.Now()
	sc := s.getScratch()
	defer s.releaseScratch(sc)
	if err := validate(sc); err != nil {
		s.om.fail(opTopK)
		return nil, err
	}
	dst, offs, err := s.runBatch(tok, opTopK, sc, time.Since(vstart), k, s.resultBuf(k, 1), sc.offs[:0])
	sc.offs = offs
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// TopK returns the k best objects for one linear query, best first, without
// rebuilding the index (compare the package-level TopK, which bulk-loads a
// throwaway index per call). It runs as a batch of one through the same
// shared-traversal search as TopKMany, on the calling goroutine; on a
// sharded server that walk skips every shard whose bounding box cannot
// reach the k-th result. Safe for concurrent use.
func (s *Server) TopK(query Query, k int) ([]Assignment, error) {
	return s.topKReq(cancel.Token{}, query, k)
}

// topKReq is TopK behind the admission gate.
func (s *Server) topKReq(tok cancel.Token, query Query, k int) ([]Assignment, error) {
	return s.topKOne(tok, query.ID, k, func(sc *serveScratch) error {
		return s.validateBatch(sc, []Query{query}, k, false)
	})
}

// TopKMonotone is TopK for an arbitrary monotone preference: a batch of one
// on the batch searcher's generic scoring path.
func (s *Server) TopKMonotone(query PreferenceQuery, k int) ([]Assignment, error) {
	return s.topKMonotone(cancel.Token{}, query, k)
}

func (s *Server) topKMonotone(tok cancel.Token, query PreferenceQuery, k int) ([]Assignment, error) {
	return s.topKOne(tok, query.ID, k, func(sc *serveScratch) error {
		if k < 0 {
			return fmt.Errorf("prefmatch: negative k %d", k)
		}
		if query.Preference == nil {
			return fmt.Errorf("prefmatch: preference query %d is nil", query.ID)
		}
		sc.fns = append(sc.fns, prefAdapter{p: query.Preference})
		sc.qids = append(sc.qids, query.ID)
		return nil
	})
}

// TopKMany answers independent top-k queries in query order, one result
// slice per query — the paper's serving framing: many users, one object
// set, each wanting a personal ranking. Instead of one descent per query,
// the queries are validated up front and each chunk of at most batchChunk
// walks the tree once (on a sharded server, through the composite's
// synthetic root, entering only the shards some query can still use).
// Results are bit-identical to per-query TopK calls.
//
// Chunks are spread across workers goroutines (0 or negative means
// GOMAXPROCS); each chunk walks on one goroutine, so workers=1 stays fully
// sequential.
func (s *Server) TopKMany(queries []Query, k, workers int) ([][]Assignment, error) {
	return s.topKMany(cancel.Token{}, queries, k, workers)
}

func (s *Server) topKMany(tok cancel.Token, queries []Query, k, workers int) (_ [][]Assignment, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opTopKMany, firstQID(queries), &err)
	vstart := time.Now()
	sc := s.getScratch()
	defer s.releaseScratch(sc)
	if err := s.validateBatch(sc, queries, k, true); err != nil {
		s.om.fail(opTopKMany)
		return nil, err
	}
	// Chunks trace themselves concurrently; the call's validation is
	// observed here, once.
	s.om.stages[stageValidate].ObserveDuration(time.Since(vstart))
	results := make([][]Assignment, len(queries))
	chunks := (len(queries) + batchChunk - 1) / batchChunk
	cerrs := make([]error, chunks)
	fanOut(chunks, workers, func(ci int) {
		cerrs[ci] = guard.Safe(func() error {
			lo, hi := ci*batchChunk, min((ci+1)*batchChunk, len(queries))
			csc := s.getScratch()
			defer s.releaseScratch(csc)
			csc.fns = append(csc.fns, sc.fns[lo:hi]...)
			csc.qids = append(csc.qids, sc.qids[lo:hi]...)
			flat, offs, err := s.runBatch(tok, opTopKMany, csc, 0, k, s.resultBuf(k, hi-lo), csc.offs[:0])
			csc.offs = offs
			if err != nil {
				return err
			}
			for i := range hi - lo {
				results[lo+i] = flat[offs[i]:offs[i+1]:offs[i+1]]
			}
			return nil
		})
	})
	if err := errors.Join(cerrs...); err != nil {
		return nil, err
	}
	return results, nil
}

// TopKManyAppend is the allocation-free form of TopKMany for callers that
// recycle their result buffers: all assignments are appended flat to dst,
// and offsets is appended one entry per query plus a final boundary, so
// query i's ranking is dst[offsets[base+i]:offsets[base+i+1]] (base being
// len(offsets) on entry). Traversals are shared exactly like TopKMany and
// query weights are normalised into a pooled arena, so a steady-state call
// over the memory backend performs zero allocations once dst and offsets
// have grown to capacity. The batch runs on the calling goroutine.
func (s *Server) TopKManyAppend(dst []Assignment, offsets []int, queries []Query, k int) ([]Assignment, []int, error) {
	return s.topKManyAppend(cancel.Token{}, dst, offsets, queries, k)
}

// topKManyAppend is TopKManyAppend behind the admission gate, which stays
// allocation-free (fixed-site defers, an atomic-and-channel admit) — the CI
// alloc gate pins this with a MaxInFlight server and a live context.
func (s *Server) topKManyAppend(tok cancel.Token, dst []Assignment, offsets []int, queries []Query, k int) (_ []Assignment, _ []int, err error) {
	if err := s.admit(tok); err != nil {
		return dst, offsets, err
	}
	defer s.exitRequest()
	defer s.finishReq(opTopKMany, firstQID(queries), &err)
	vstart := time.Now()
	sc := s.getScratch()
	defer s.releaseScratch(sc)
	if err := s.validateBatch(sc, queries, k, false); err != nil {
		s.om.fail(opTopKMany)
		return dst, offsets, err
	}
	return s.runBatch(tok, opTopKMany, sc, time.Since(vstart), k, dst, offsets)
}

// Skyline returns the ascending IDs of the non-dominated objects, computed
// over a snapshot. Safe for concurrent use.
func (s *Server) Skyline() ([]int, error) {
	return s.skyline(cancel.Token{})
}

func (s *Server) skyline(tok cancel.Token) (_ []int, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opSkyline, -1, &err)
	return serve(s, opSkyline, tok, 0, func(sc *serveScratch) ([]int, error) {
		return skylineOver(sc.snap, tok, &sc.c)
	})
}

// clampWorkers normalises a worker-count option against a job count: zero
// or negative means GOMAXPROCS, and more workers than jobs is clamped to
// jobs, so no spawned goroutine can be idle from the start. The single
// place this package interprets worker counts — MatchMany, TopKMany and
// fanOut all route through it and must not re-derive the rule.
func clampWorkers(workers, jobs int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// fanOut runs jobs 0..n-1 across workers goroutines (normalised by
// clampWorkers), pulling indices from a shared atomic cursor so fast
// workers absorb slow jobs.
func fanOut(n, workers int, job func(int)) {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
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
				job(i)
			}
		}()
	}
	wg.Wait()
}
