package prefmatch

import (
	"errors"
	"fmt"

	"prefmatch/internal/cancel"
	"prefmatch/internal/core"
	"prefmatch/internal/index"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
)

// Index is a reusable bulk-loaded object index. Building the index is the
// expensive part of a matching run; a server that receives waves of query
// batches over a slow-changing inventory should build the Index once and
// call Match on it per wave. Serving deployments typically build it on the
// Memory backend (Options.Backend), which answers the same queries several
// times faster in wall-clock.
//
// Index.Match always uses the skyline-based algorithm, which never modifies
// the index (Brute Force and Chain consume their index; use the
// package-level Match for those). An Index is not safe for concurrent use
// on any backend; Server is the concurrent counterpart, and
// NewServerFromIndex upgrades a memory-built Index to concurrent serving
// without re-indexing.
type Index struct {
	ix         index.ObjectIndex
	capacities map[index.ObjID]int
	opts       Options
}

// BuildIndex bulk-loads objects into a reusable index. Options control the
// backend, sharding (Shards/ShardBy), page size and buffer policy; the
// algorithm-related fields are taken per Match call instead.
func BuildIndex(objects []Object, opts *Options) (*Index, error) {
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
	oix, _, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return &Index{ix: oix, capacities: capacities, opts: *opts}, nil
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.ix.Len() }

// Dim returns the number of attributes per object.
func (ix *Index) Dim() int { return ix.ix.Dim() }

// Pages returns the index size in pages — nodes, for the Memory backend
// (diagnostics).
func (ix *Index) Pages() int { return ix.ix.NumPages() }

// Backend returns the storage backend the index was built on.
func (ix *Index) Backend() Backend { return ix.opts.Backend }

// Match runs a skyline-based matching of the queries against the indexed
// objects. The index is left intact and can be matched again. opts may be
// nil; its Algorithm field must be SkylineBased (the zero value — the
// destructive algorithms are rejected with an error) and its storage
// fields are ignored (fixed at BuildIndex time).
func (ix *Index) Match(queries []Query, opts *Options) (*Result, error) {
	res, _, err := matchWave(ix.ix, ix.capacities, queries, opts, cancel.Token{}, 0)
	return res, err
}

// waveInputs is the shared validation prologue of a shared-index matching
// wave: only the skyline-based algorithm may run against a shared index
// (the single place Index.Match and Server.Match agree on that contract),
// the queries must be non-empty and convert to dimension-d functions, and
// the ablation switches map onto the core options. Capacities and counters
// are added by the caller.
func waveInputs(dim int, queries []Query, opts *Options) ([]prefs.Function, *core.Options, error) {
	if opts == nil {
		opts = &Options{}
	}
	if coreAlg(opts.Algorithm) != core.AlgSB {
		return nil, nil, fmt.Errorf("prefmatch: only SkylineBased can match against a shared index (got %v); destructive algorithms need a fresh index", opts.Algorithm)
	}
	if len(queries) == 0 {
		return nil, nil, errNoQueries
	}
	fns, err := convertQueries(queries, dim)
	if err != nil {
		return nil, nil, err
	}
	return fns, &core.Options{
		Algorithm:             core.AlgSB,
		SkylineMode:           skyline.Mode(opts.Maintenance),
		DisableMultiPair:      opts.DisableMultiPair,
		DisableTightThreshold: opts.DisableTightThreshold,
	}, nil
}

// matchWave runs one skyline-based matching wave of queries against an
// already-built index, which is never mutated: SB keeps the skyline of
// remaining objects on the side, so the same tree can serve the next wave —
// or, through read-only snapshots, other waves running concurrently. With
// opts.ShardMatch set and a sharded index, the wave fans across per-shard
// snapshots (sharded.MatchWave, shardWorkers workers, 0 meaning GOMAXPROCS)
// instead of traversing the composite single-threaded — same assignments,
// same order, same scores. The counters charged with the run are returned
// alongside the result so callers can aggregate across waves.
func matchWave(tree index.ObjectIndex, capacities map[index.ObjID]int, queries []Query, opts *Options, tok cancel.Token, shardWorkers int) (*Result, *stats.Counters, error) {
	fns, copts, err := waveInputs(tree.Dim(), queries, opts)
	if err != nil {
		return nil, nil, err
	}
	copts.Capacities = capacities
	copts.Cancel = tok
	c := &stats.Counters{}
	if opts != nil && opts.ShardMatch {
		sh, ok := tree.(*sharded.Index)
		if !ok {
			return nil, nil, errShardMatchUnsharded
		}
		var timer stats.Timer
		timer.Start()
		pairs, err := sh.MatchWave(fns, copts, shardWorkers, c)
		timer.Stop()
		if err != nil {
			return nil, nil, err
		}
		res := &Result{Assignments: assignmentsFromPairs(pairs)}
		res.Stats = statsFromCounters(c, timer.Elapsed())
		return res, c, nil
	}
	// NewMatcher redirects the index's accounting to c for the run and
	// restores the original sink when the matching completes (the drain
	// loop below always runs to exhaustion).
	copts.Counters = c
	inner, err := core.NewMatcher(tree, fns, copts)
	if err != nil {
		return nil, nil, err
	}
	m := &Matcher{inner: inner, c: c}
	res := &Result{}
	for {
		a, ok, err := m.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		res.Assignments = append(res.Assignments, a)
	}
	res.Stats = m.Stats()
	return res, c, nil
}

// errShardMatchUnsharded rejects the shard-parallel flag on an index that
// has no shards to fan across.
var errShardMatchUnsharded = errors.New("prefmatch: ShardMatch requires a sharded index; enable sharding with Options.Shards >= 1")

// assignmentsFromPairs projects core pairs onto the public assignment type.
func assignmentsFromPairs(pairs []core.Pair) []Assignment {
	out := make([]Assignment, len(pairs))
	for i, p := range pairs {
		out[i] = Assignment{QueryID: p.FuncID, ObjectID: int(p.ObjID), Score: p.Score}
	}
	return out
}
