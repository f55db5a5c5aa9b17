// Package prefmatch evaluates multiple preference queries simultaneously:
// given a set of objects with multidimensional "goodness" attributes and a
// set of user queries expressed as attribute weights, it computes the fair
// (stable) one-to-one assignment of objects to queries defined by the
// stable-marriage iteration of
//
//	Leong Hou U, Nikos Mamoulis, Kyriakos Mouratidis:
//	"Efficient Evaluation of Multiple Preference Queries", ICDE 2009.
//
// The pair (query, object) with the highest score among the remaining
// participants is matched and removed, repeatedly, until queries or objects
// run out. Matched pairs are "stable": no unmatched query scores the object
// higher, and the query scores no unmatched object higher.
//
// The default algorithm is the paper's skyline-based SB, which maintains
// the skyline of the remaining objects incrementally and performs orders of
// magnitude less I/O than issuing top-1 searches per query. The two
// baselines evaluated in the paper (Brute Force and Chain) are provided for
// comparison and benchmarking.
//
// # Storage backends
//
// The algorithms run against a backend-agnostic object index
// (internal/index.ObjectIndex) with two base implementations, selected by
// Options.Backend:
//
//   - Paged (the default) simulates the paper's experimental setup: the
//     object R-tree lives on fixed-size disk pages behind an LRU buffer,
//     and Stats reports physical I/O exactly like the paper's "I/O
//     accesses" metric. Use it to reproduce the paper's numbers or to
//     reason about disk-resident deployments.
//   - Memory holds the same STR-packed R-tree directly in memory: no
//     simulated pages, no buffer, no per-access accounting. It is the
//     serving backend — typically several times faster in wall-clock —
//     and reports zero I/O. Use it when latency matters and the I/O
//     metric does not.
//
// A third, composite family shards the object set across N sub-indexes of
// either base backend (Options.Shards, Options.ShardBy): the shards are
// joined under a synthetic root whose entries carry the shard bounding
// boxes, so branch-and-bound consumers skip whole shards that cannot beat
// their threshold: a Server walks the composite like one tree for ranked
// search, skyline and matching. All backends and shard counts produce the
// identical stable matching for every algorithm.
//
// # Concurrency
//
// The one-shot entry points (Match, MatchMonotone, TopK, Skyline, Verify)
// are safe to call from any number of goroutines — each call builds its own
// private index. The reusable types are split by backend capability:
//
//   - Matcher and Index are single-goroutine, on either backend: the paged
//     backend's LRU buffer mutates on every read, and a matcher carries
//     un-synchronised per-run state.
//   - Server is the concurrent serving layer. It indexes the objects once
//     on the Memory backend — whose reads are pure, and which SB never
//     mutates — and hands each request a read-only snapshot with private
//     work counters, so parallel matching waves, top-k queries and skyline
//     computations can share one index. All Server methods are safe for
//     concurrent use.
//
// # Quick start
//
//	objects := []prefmatch.Object{
//		{ID: 1, Values: []float64{0.9, 0.2, 0.5}},
//		{ID: 2, Values: []float64{0.3, 0.8, 0.7}},
//	}
//	queries := []prefmatch.Query{
//		{ID: 1, Weights: []float64{5, 1, 1}}, // mostly cares about attr 0
//		{ID: 2, Weights: []float64{1, 5, 1}}, // mostly cares about attr 1
//	}
//	res, err := prefmatch.Match(objects, queries, nil)
//
// Attribute values must be "goodness" scores where larger is better;
// convert "smaller is better" attributes (price, distance) before indexing.
// Weights are non-negative and are normalised internally to sum to 1.
package prefmatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"prefmatch/internal/core"
	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
	"prefmatch/internal/verify"
)

// Object is an item that queries compete for. Values are goodness scores
// (larger = better), one per attribute; all objects must share the same
// number of attributes. IDs must be unique, non-negative and fit in 31 bits.
//
// Capacity optionally makes the object assignable to several queries (an
// object with capacity k models k identical units — e.g. a room type with k
// rooms). Zero means 1; negative capacities are rejected.
type Object struct {
	ID       int
	Values   []float64
	Capacity int
}

// Query is one user's preference: non-negative weights over the object
// attributes, normalised internally to sum to 1 so that no query is favored
// over another. IDs must be unique.
type Query struct {
	ID      int
	Weights []float64
}

// Assignment is one matched pair.
type Assignment struct {
	QueryID  int
	ObjectID int
	Score    float64
}

// Algorithm selects the matching algorithm.
type Algorithm int

const (
	// SkylineBased is the paper's SB algorithm (the default).
	SkylineBased Algorithm = iota
	// BruteForce issues a top-1 search per query and re-searches on
	// conflicts (§ III-A of the paper).
	BruteForce
	// Chain adapts Wong et al.'s spatial matching (§ V of the paper).
	Chain
	// BruteForceIncremental is Brute Force rebuilt on resumable incremental
	// ranked searches: no tree deletions, no restarted queries. An ablation
	// showing how much of classic Brute Force's cost is re-search.
	BruteForceIncremental
)

// String names the algorithm.
func (a Algorithm) String() string { return coreAlg(a).String() }

func coreAlg(a Algorithm) core.Algorithm {
	switch a {
	case BruteForce:
		return core.AlgBruteForce
	case Chain:
		return core.AlgChain
	case BruteForceIncremental:
		return core.AlgBruteForceIncremental
	default:
		return core.AlgSB
	}
}

// Backend selects the storage backend of the object index.
type Backend int

const (
	// Paged is the paper-faithful backend: the object R-tree lives on
	// simulated 4 KiB disk pages behind an LRU buffer, and every physical
	// page transfer is counted in Stats.IOAccesses. The default.
	Paged Backend = iota
	// Memory is the pure in-memory serving backend: the same STR-packed
	// R-tree with identical traversal semantics, but no simulated pages,
	// no buffer, and near-zero accounting overhead. Stats reports zero
	// I/O; wall-clock time is the relevant metric.
	Memory
	// Dynamic is the live-mutation serving backend: a Memory-style
	// STR-packed base arena plus an insert-capable delta R-tree and
	// tombstone overlay holding recent writes, republished by a background
	// merge through atomic epoch rotation. Reads are as pure and
	// allocation-free as Memory's; Insert/Update/Delete are accepted while
	// serving. Tune the merge policy with Options.MergeThreshold and
	// Options.MergeInterval.
	Dynamic
)

// String names the backend for labels and flags.
func (b Backend) String() string {
	switch b {
	case Memory:
		return "mem"
	case Dynamic:
		return "dyn"
	default:
		return "paged"
	}
}

// ShardBy selects how the sharded composite backend partitions the object
// set across its sub-indexes (see Options.Shards).
type ShardBy int

const (
	// ShardSpatial tiles the data space with an STR-style recursion, giving
	// every shard a tight bounding box so whole shards are skipped when
	// their MBR cannot beat the current threshold. The default.
	ShardSpatial ShardBy = iota
	// ShardHash routes objects by hashed ID — the placement a
	// shard-per-machine deployment would use. Balanced, but every shard
	// spans the whole space, so MBR pruning never fires.
	ShardHash
	// ShardRoundRobin deals objects to shards by input position; the
	// simplest balanced baseline, also without spatial locality.
	ShardRoundRobin
)

// String names the partitioner for labels and flags.
func (s ShardBy) String() string {
	switch s {
	case ShardSpatial:
		return "spatial"
	case ShardHash:
		return "hash"
	case ShardRoundRobin:
		return "rr"
	default:
		return fmt.Sprintf("ShardBy(%d)", int(s))
	}
}

// partitioner maps the public selector to the internal implementation.
func (s ShardBy) partitioner() (sharded.Partitioner, error) {
	switch s {
	case ShardSpatial:
		return sharded.Spatial{}, nil
	case ShardHash:
		return sharded.Hash{}, nil
	case ShardRoundRobin:
		return sharded.RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("prefmatch: unknown ShardBy %d", int(s))
	}
}

// MaintenanceMode selects how SB maintains the skyline after removals.
type MaintenanceMode int

const (
	// MaintainPlist uses the paper's pruned-entry lists (default, fastest).
	MaintainPlist MaintenanceMode = iota
	// MaintainRetraverse re-traverses the R-tree per update (baseline).
	MaintainRetraverse
	// MaintainRecompute recomputes the skyline from scratch (baseline).
	MaintainRecompute
)

// Options tunes the matcher. The zero value (or nil) gives the paper's
// default configuration: SB with plist maintenance, multi-pair emission,
// tight TA threshold, 4 KiB pages, and an LRU buffer of 2% of the index.
type Options struct {
	Algorithm Algorithm

	// Backend selects the object-index storage backend: Paged (default)
	// for paper-faithful I/O measurement, Memory for fastest wall-clock
	// serving. Both produce the identical matching.
	Backend Backend

	// Maintenance selects SB's skyline maintenance strategy.
	Maintenance MaintenanceMode

	// DisableMultiPair turns off emitting several stable pairs per loop.
	DisableMultiPair bool

	// DisableTightThreshold uses the naive TA stop bound instead of the
	// paper's tight one.
	DisableTightThreshold bool

	// PageSize of the simulated disk pages holding the object R-tree.
	// Defaults to 4096, the paper's setting. On the Memory backend it
	// only determines the node fan-outs (no pages are allocated).
	PageSize int

	// BufferFraction sizes the LRU buffer relative to the index size.
	// Defaults to 0.02 (2%), the paper's setting. Ignored when BufferPages
	// is set. Paged backend only: the Memory backend has no buffer, so
	// both buffer fields are ignored there.
	BufferFraction float64

	// BufferPages fixes the LRU buffer capacity in pages. Paged backend
	// only (see BufferFraction).
	BufferPages int

	// Shards partitions the object index across this many sub-indexes of
	// the selected Backend, joined by the sharded composite backend. 0 (the
	// default) builds a single index; 1 builds a one-shard composite
	// (useful for measuring the composite's overhead); larger values split
	// the object set. At most sharded.MaxShards (256). A Server answers
	// top-k, session, skyline and matching requests with one walk over a
	// composite snapshot, whose synthetic root skips every shard whose
	// bounding box cannot reach the answer (Stats.ShardsPruned); an SB
	// wave's dominance tests are partitioned by shard.
	Shards int

	// ShardBy selects the partitioner of the sharded composite backend.
	// Setting it without Shards is an error, not a silent no-op.
	ShardBy ShardBy

	// MergeThreshold tunes the Dynamic backend's merge policy: a background
	// re-pack of the write tier into a fresh base arena starts once the
	// delta plus tombstones reach this many entries. 0 means the backend
	// default (4096); negative disables size-triggered merges (merge by
	// interval, or manually via Server.Compact). Ignored by other backends.
	MergeThreshold int

	// MergeInterval additionally starts a merge when this much time has
	// passed since the last one. 0 disables interval-triggered merges.
	// Dynamic backend only.
	//
	// CAVEAT — the clock is only consulted as writes arrive: there is no
	// timer goroutine, so a server that goes idle with a resident write
	// tier will NOT merge until the next write, no matter how small the
	// interval. An interval is a staleness bound on a busy server, not a
	// guarantee. Call Compact to fold an idle write tier in explicitly;
	// Close's drain path runs that final Compact itself.
	MergeInterval time.Duration

	// AdminAddr, when non-empty, starts an admin HTTP server on this
	// address when the Server is built (NewServer only; one-shot entry
	// points ignore it), serving /metrics (Prometheus text format),
	// /statsz (JSON), /healthz and /debug/pprof. Use "127.0.0.1:0" to let
	// the kernel pick a port (Server.AdminAddr reports it). The listener
	// is closed by Server.Close.
	AdminAddr string

	// SlowQueryThreshold arms the Server's slow-query log: every request
	// whose total latency reaches the threshold is written to SlowQueryLog
	// as one structured line with the per-stage breakdown (validate, pin,
	// traverse, merge) and the request's work counters. 0 (the default)
	// disables the log — and keeps the serving hot path free of the
	// formatting cost, which only ever runs for over-threshold requests.
	SlowQueryThreshold time.Duration

	// SlowQueryLog receives slow-query lines (os.Stderr when nil). Writes
	// are serialised; the writer does not need to be safe for concurrent
	// use.
	SlowQueryLog io.Writer

	// MaxInFlight caps how many requests a Server admits concurrently
	// (reads and writes alike). A request arriving while the cap is
	// reached waits at most MaxQueueWait for a slot and is then shed with
	// ErrOverloaded — the server never queues unboundedly. 0 (the
	// default) disables admission control. Server only.
	MaxInFlight int

	// MaxQueueWait bounds how long an over-limit request may wait for an
	// admission slot before being shed with ErrOverloaded. 0 (the
	// default) sheds immediately when the gate is full. Only meaningful
	// with MaxInFlight set.
	MaxQueueWait time.Duration

	// DrainTimeout bounds Server.Close's graceful drain: how long Close
	// waits for in-flight requests to finish and for a background merge
	// to settle before giving up and reporting what was still running.
	// 0 means the default (5s). Server only.
	DrainTimeout time.Duration

	// ResultCacheEntries bounds the Server's session result cache (see
	// Server.OpenSession): complete top-k answers keyed on (weights, k,
	// snapshot epoch), re-served without index work while the epoch stands.
	// 0 (the default) uses rescache.DefaultEntries (1024); negative disables
	// the cache — sessions still work, through incremental re-evaluation and
	// tree walks alone. Server only.
	ResultCacheEntries int
}

// Validate checks the Options fields for static validity — negative counts,
// partitioner choices that would be silently dropped, unknown selector
// values — and returns an error naming the offending field, or nil. Every
// entry point that takes Options (Match, NewMatcher, NewServer, BuildIndex,
// TopK, Skyline, …) validates through this one method, so the rules cannot
// drift between them; cmd/prefmatch routes its flag handling through it too.
// Contextual rules (algorithm/backend compatibility) are still enforced
// where the context exists.
//
// Note the deliberate non-rules: MergeThreshold may be negative (it disables
// size-triggered merges) and ResultCacheEntries may be negative (it disables
// the session result cache). MergeInterval only bounds staleness on a busy
// server — see its CAVEAT — but that is a semantic caveat, not a validity
// error.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.PageSize < 0 {
		return fmt.Errorf("prefmatch: Options.PageSize is negative (%d)", o.PageSize)
	}
	if o.BufferFraction < 0 {
		return fmt.Errorf("prefmatch: Options.BufferFraction is negative (%v)", o.BufferFraction)
	}
	if o.BufferPages < 0 {
		return fmt.Errorf("prefmatch: Options.BufferPages is negative (%d)", o.BufferPages)
	}
	if o.Shards < 0 {
		return fmt.Errorf("prefmatch: Options.Shards is negative (%d)", o.Shards)
	}
	if o.Shards > sharded.MaxShards {
		return fmt.Errorf("prefmatch: Options.Shards (%d) exceeds the maximum %d", o.Shards, sharded.MaxShards)
	}
	switch o.ShardBy {
	case ShardSpatial, ShardHash, ShardRoundRobin:
	default:
		return fmt.Errorf("prefmatch: Options.ShardBy (%d) is not a known partitioner", int(o.ShardBy))
	}
	if o.Shards == 0 && o.ShardBy != ShardSpatial {
		// Reject a partitioner choice that would silently do nothing.
		return fmt.Errorf("prefmatch: Options.ShardBy (%v) set without Options.Shards; enable sharding with Options.Shards >= 1", o.ShardBy)
	}
	if o.MergeInterval < 0 {
		return fmt.Errorf("prefmatch: Options.MergeInterval is negative (%v)", o.MergeInterval)
	}
	if o.SlowQueryThreshold < 0 {
		return fmt.Errorf("prefmatch: Options.SlowQueryThreshold is negative (%v)", o.SlowQueryThreshold)
	}
	if o.MaxInFlight < 0 {
		return fmt.Errorf("prefmatch: Options.MaxInFlight is negative (%d)", o.MaxInFlight)
	}
	if o.MaxQueueWait < 0 {
		return fmt.Errorf("prefmatch: Options.MaxQueueWait is negative (%v)", o.MaxQueueWait)
	}
	if o.DrainTimeout < 0 {
		return fmt.Errorf("prefmatch: Options.DrainTimeout is negative (%v)", o.DrainTimeout)
	}
	return nil
}

// Stats reports the work a run performed, mirroring the measurements in the
// paper's evaluation.
//
// ShardsPruned is sharded-only. On a Server it counts, for every recorded
// request that walked the composite snapshot — a top-k chunk of at most 64
// queries, a session walk, a skyline, a matching wave — each shard listed
// under the synthetic root that the walk never entered; session answers
// served without a walk add nothing. One-shot entry points and Index.Match
// walk the composite itself, not a snapshot, and report 0.
type Stats struct {
	IOAccesses      int64         // physical page transfers (the paper's metric)
	PageReads       int64         // physical reads
	PageWrites      int64         // physical writes
	BufferHits      int64         // page requests served by the LRU buffer
	Top1Searches    int64         // ranked searches issued
	NodesVisited    int64         // R-tree nodes expanded by ranked search
	TAListAccesses  int64         // TA sorted-list entries consumed
	ScoreEvals      int64         // preference function evaluations
	DominanceChecks int64         // point/rect dominance tests, skyline cell corner tests included
	HeapOps         int64         // priority-queue pushes and pops
	SkylineUpdates  int64         // incremental skyline maintenance calls
	SkylineMax      int64         // largest skyline encountered
	Loops           int64         // matcher loops
	Pairs           int64         // assignments produced
	TreeDeletes     int64         // object deletions from the object R-tree
	ShardsPruned    int64         // whole shards skipped by MBR pruning (sharded only; see above)
	Elapsed         time.Duration // wall-clock time of the matching phase

	// Dynamic-backend serving state (zero on static backends). The first
	// three are point-in-time gauges read when Stats is called, not
	// accumulated per request; DeltaNodesVisited is cumulative like the
	// other counters.
	Epoch             uint64 // current snapshot epoch (sum of shard epochs when sharded)
	DeltaSize         int64  // objects currently in the write tier (delta + tombstones)
	MergesCompleted   int64  // background merges republished so far
	DeltaNodesVisited int64  // write-tier nodes expanded by ranked search

	// Robustness accounting (Server only; zero elsewhere): requests shed
	// by admission control (ErrOverloaded), requests abandoned via
	// context cancellation or deadline, and worker panics recovered into
	// per-request errors.
	Shed     int64
	Canceled int64
	Panics   int64
}

// Result is a completed matching.
type Result struct {
	Assignments []Assignment
	Stats       Stats
}

// Matcher computes assignments progressively: each Next call returns the
// next stable pair, so callers can stream results or stop early. A Matcher
// is not safe for concurrent use.
type Matcher struct {
	inner   core.Matcher
	c       *stats.Counters
	timer   stats.Timer
	emitted int64
}

var (
	errNoObjects = errors.New("prefmatch: no objects")
	errNoQueries = errors.New("prefmatch: no queries")
)

// Sentinel errors of the live-mutation API, for errors.Is. Every error a
// read-only surface returns wraps ErrReadOnly; every write addressing an
// absent object wraps ErrNotFound.
var (
	// ErrReadOnly reports a mutation attempted against a read-only surface:
	// a Server built on a static backend, or a pinned snapshot.
	ErrReadOnly = index.ErrReadOnly
	// ErrNotFound reports an Update or Remove of an object that is not
	// indexed.
	ErrNotFound = index.ErrNotFound
)

// Sentinel errors of the Server's production-hardening surface, for
// errors.Is. Cancellation errors are wrapped with the pipeline stage that
// observed them (admission, topk.traverse, wave.next, skyline.compute,
// topk.emit, serve.emit, write.apply) but always unwrap to these sentinels.
var (
	// ErrCanceled reports a request abandoned because its context was
	// canceled. Alias of context.Canceled, so either sentinel matches.
	ErrCanceled = context.Canceled
	// ErrDeadlineExceeded reports a request abandoned because its context
	// deadline passed mid-flight. Alias of context.DeadlineExceeded.
	ErrDeadlineExceeded = context.DeadlineExceeded
	// ErrOverloaded reports a request shed by admission control: the
	// server already had Options.MaxInFlight requests in flight and no
	// slot freed within Options.MaxQueueWait. Shed requests touch no
	// snapshot and do no index work — retry with backoff.
	ErrOverloaded = errors.New("prefmatch: overloaded: admission gate full")
	// ErrClosed reports a request refused because Server.Close has begun:
	// the server is draining or closed and accepts no new work.
	ErrClosed = errors.New("prefmatch: server closed")
)

// NewMatcher indexes the objects and prepares the selected algorithm.
func NewMatcher(objects []Object, queries []Query, opts *Options) (*Matcher, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(objects) == 0 {
		return nil, errNoObjects
	}
	if len(queries) == 0 {
		return nil, errNoQueries
	}
	d, items, capacities, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}

	fns, err := convertQueries(queries, d)
	if err != nil {
		return nil, err
	}
	return newMatcher(items, d, capacities, opts, func(tree index.ObjectIndex, copts *core.Options) (core.Matcher, error) {
		return core.NewMatcher(tree, fns, copts)
	})
}

// newMatcher is the setup NewMatcher and MatchMonotone share: it indexes
// the validated objects on the backend opts selects, pins a Dynamic index
// (whole or sharded) behind a matcherView, and has build make the core
// matcher over the caller's function set.
func newMatcher(items []index.Item, d int, capacities map[index.ObjID]int, opts *Options,
	build func(index.ObjectIndex, *core.Options) (core.Matcher, error)) (*Matcher, error) {
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	if opts.Backend == Dynamic {
		tree = newMatcherView(tree, c)
	}
	inner, err := build(tree, &core.Options{
		Algorithm:             coreAlg(opts.Algorithm),
		SkylineMode:           skyline.Mode(opts.Maintenance),
		DisableMultiPair:      opts.DisableMultiPair,
		DisableTightThreshold: opts.DisableTightThreshold,
		Capacities:            capacities,
		Counters:              c,
	})
	if err != nil {
		return nil, err
	}
	return &Matcher{inner: inner, c: c}, nil
}

// convertObjectSet is the shared validation prologue for every entry point
// that takes a non-empty object set: the dimensionality is fixed by the
// first object, then the set is converted to index items plus a capacity
// map. Centralised so that Match, MatchMonotone, Verify, BuildIndex and
// NewServer cannot drift on what counts as a valid object set.
func convertObjectSet(objects []Object) (d int, items []index.Item, capacities map[index.ObjID]int, err error) {
	d = len(objects[0].Values)
	if d == 0 {
		return 0, nil, nil, errors.New("prefmatch: objects need at least one attribute")
	}
	items, capacities, err = convertObjects(objects, d)
	if err != nil {
		return 0, nil, nil, err
	}
	return d, items, capacities, nil
}

// checkObject is the per-object validation of every path that indexes an
// object (convertObjects, the write path's validateObject). NaN and ±Inf
// attributes are rejected: they would poison R-tree geometry.
func checkObject(o Object, d int) error {
	if len(o.Values) != d {
		return fmt.Errorf("prefmatch: object %d has %d attributes, want %d", o.ID, len(o.Values), d)
	}
	if o.ID < 0 || int64(o.ID) > 1<<31-1 {
		return fmt.Errorf("prefmatch: object ID %d out of range", o.ID)
	}
	if o.Capacity < 0 {
		return fmt.Errorf("prefmatch: object %d has negative capacity %d", o.ID, o.Capacity)
	}
	for j, v := range o.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("prefmatch: object %d attribute %d is %v, want a finite value", o.ID, j, v)
		}
	}
	return nil
}

// convertObjects validates objects and converts them to index items plus a
// capacity map (nil when every capacity is the default 1).
func convertObjects(objects []Object, d int) ([]index.Item, map[index.ObjID]int, error) {
	items := make([]index.Item, len(objects))
	seenObj := make(map[int]bool, len(objects))
	var capacities map[index.ObjID]int
	for i, o := range objects {
		if err := checkObject(o, d); err != nil {
			return nil, nil, err
		}
		if seenObj[o.ID] {
			return nil, nil, fmt.Errorf("prefmatch: duplicate object ID %d", o.ID)
		}
		if o.Capacity > 1 {
			if capacities == nil {
				capacities = map[index.ObjID]int{}
			}
			capacities[index.ObjID(o.ID)] = o.Capacity
		}
		seenObj[o.ID] = true
		items[i] = index.Item{ID: index.ObjID(o.ID), Point: vec.Point(o.Values).Clone()}
	}
	return items, capacities, nil
}

// convertQueries validates queries and converts them to normalised linear
// preference functions of dimension d.
func convertQueries(queries []Query, d int) ([]prefs.Function, error) {
	fns := make([]prefs.Function, len(queries))
	seen := make(map[int]bool, len(queries))
	for i, q := range queries {
		f, err := prefs.NewFunction(q.ID, q.Weights)
		if err != nil {
			return nil, fmt.Errorf("prefmatch: query %d: %w", q.ID, err)
		}
		if f.Dim() != d {
			return nil, fmt.Errorf("prefmatch: query %d has %d weights, want %d", q.ID, f.Dim(), d)
		}
		if seen[q.ID] {
			return nil, fmt.Errorf("prefmatch: duplicate query ID %d", q.ID)
		}
		seen[q.ID] = true
		fns[i] = f
	}
	return fns, nil
}

// buildIndex bulk-loads the object index on the backend selected by opts —
// a single paged or memory index, or the sharded composite over either —
// and resets the counters so that index construction is excluded from the
// measured work.
func buildIndex(items []index.Item, d int, opts *Options) (index.ObjectIndex, *stats.Counters, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	c := &stats.Counters{}
	var (
		ix  index.ObjectIndex
		err error
	)
	if opts.Shards == 0 {
		ix, err = buildSingle(items, d, opts, c)
	} else {
		var part sharded.Partitioner
		part, err = opts.ShardBy.partitioner()
		if err != nil {
			return nil, nil, err
		}
		ix, err = sharded.Build(d, items, &sharded.Options{
			Shards:      opts.Shards,
			Partitioner: part,
			Counters:    c,
			BuildShard: func(dim int, group []index.Item) (index.ObjectIndex, error) {
				return buildSingle(group, dim, opts, c)
			},
		})
	}
	if err != nil {
		return nil, nil, err
	}
	c.Reset()
	return ix, c, nil
}

// buildSingle bulk-loads one paged or memory index per opts.Backend — a
// whole object set or one shard of it — charging construction to c.
func buildSingle(items []index.Item, d int, opts *Options, c *stats.Counters) (index.ObjectIndex, error) {
	switch opts.Backend {
	case Memory:
		return mem.Build(d, items, &mem.Options{
			PageSize: opts.PageSize,
			Counters: c,
		})
	case Dynamic:
		return dynamic.Build(d, items, &dynamic.Options{
			PageSize:       opts.PageSize,
			Counters:       c,
			MergeThreshold: opts.MergeThreshold,
			MergeInterval:  opts.MergeInterval,
		})
	default:
		return paged.Build(d, items, &paged.Options{
			PageSize:       opts.PageSize,
			BufferFraction: opts.BufferFraction,
			BufferPages:    opts.BufferPages,
			Counters:       c,
		})
	}
}

// matcherView adapts a dynamic index, or a composite over dynamic shards,
// to the single-goroutine matcher contract: reads run against a pinned
// epoch snapshot, while the destructive algorithms' deletions go to the
// live index and re-pin the view. Without the pin, a deletion-triggered
// background merge could republish mid-search and invalidate node IDs an
// in-flight traversal still holds; with it, the epoch can only rotate at
// the Delete boundary, which is exactly where the algorithms restart their
// searches.
type matcherView struct {
	index.ObjectIndex // the pinned snapshot: all reads
	live              index.ObjectIndex
	refresh           func()
}

func newMatcherView(live index.ObjectIndex, c *stats.Counters) *matcherView {
	snap := live.(index.Snapshotter).Snapshot()
	snap.SetCounters(c)
	refresh, _ := snap.(interface{ Refresh() })
	return &matcherView{ObjectIndex: snap, live: live, refresh: refresh.Refresh}
}

// Delete forwards to the live index and re-pins the snapshot, so the next
// read observes the deletion (and whatever epoch the write published).
func (v *matcherView) Delete(id index.ObjID, p vec.Point) error {
	if err := v.live.Delete(id, p); err != nil {
		return err
	}
	v.refresh()
	return nil
}

// Next returns the next stable assignment; ok is false once the matching is
// complete.
func (m *Matcher) Next() (a Assignment, ok bool, err error) {
	m.timer.Start()
	p, ok, err := m.inner.Next()
	m.timer.Stop()
	if err != nil || !ok {
		return Assignment{}, false, err
	}
	m.emitted++
	return Assignment{QueryID: p.FuncID, ObjectID: int(p.ObjID), Score: p.Score}, true, nil
}

// Emitted returns the number of assignments produced so far — a progress
// gauge for streaming consumers that stop early or report while draining.
func (m *Matcher) Emitted() int64 { return m.emitted }

// Stats returns the work performed so far.
func (m *Matcher) Stats() Stats {
	return statsFromCounters(m.c, m.timer.Elapsed())
}

// statsFromCounters projects an internal counter sink onto the public Stats
// struct; the single place where the two vocabularies meet.
func statsFromCounters(c *stats.Counters, elapsed time.Duration) Stats {
	return Stats{
		IOAccesses:        c.IOAccesses(),
		PageReads:         c.PageReads,
		PageWrites:        c.PageWrites,
		BufferHits:        c.BufferHits,
		Top1Searches:      c.Top1Searches,
		NodesVisited:      c.NodesVisited,
		TAListAccesses:    c.TAListAccesses,
		ScoreEvals:        c.ScoreEvals,
		DominanceChecks:   c.DominanceChecks,
		HeapOps:           c.HeapOps,
		SkylineUpdates:    c.SkylineUpdates,
		SkylineMax:        c.SkylineMaxSize,
		Loops:             c.Loops,
		Pairs:             c.PairsEmitted,
		TreeDeletes:       c.TreeDeletes,
		ShardsPruned:      c.ShardsPruned,
		DeltaNodesVisited: c.DeltaNodesVisited,
		Elapsed:           elapsed,
	}
}

// Match computes the complete stable matching in one call.
func Match(objects []Object, queries []Query, opts *Options) (*Result, error) {
	m, err := NewMatcher(objects, queries, opts)
	if err != nil {
		return nil, err
	}
	return m.drain(min(len(objects), len(queries)))
}

// drain runs the matcher to completion; n is the expected matching size.
func (m *Matcher) drain(n int) (*Result, error) {
	res := &Result{Assignments: make([]Assignment, 0, n)}
	for {
		a, ok, err := m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.Assignments = append(res.Assignments, a)
	}
	res.Stats = m.Stats()
	return res, nil
}

// Verify checks that assignments form the stable matching of (objects,
// queries) produced in a valid progressive order: correct scores, no
// over-assignment (each object at most Capacity times, each query once),
// complete cardinality, and Property 1 stability at every emission step.
// It is O(n·(|objects|+|queries|)) and intended for tests and audits.
//
// Verify applies the same input validation as Match — duplicate or
// out-of-range object IDs, negative capacities, dimension mismatches and
// invalid weights are rejected with the same errors — so a (objects,
// queries) pair accepted by one is accepted by the other.
func Verify(objects []Object, queries []Query, assignments []Assignment) error {
	if len(objects) == 0 {
		return errNoObjects
	}
	if len(queries) == 0 {
		return errNoQueries
	}
	d, items, caps, err := convertObjectSet(objects)
	if err != nil {
		return err
	}
	fns, err := convertQueries(queries, d)
	if err != nil {
		return err
	}
	pairs := make([]core.Pair, len(assignments))
	for i, a := range assignments {
		pairs[i] = core.Pair{FuncID: a.QueryID, ObjID: index.ObjID(a.ObjectID), Score: a.Score}
	}
	return verify.CheckProgressiveCapacitated(items, fns, caps, pairs)
}
