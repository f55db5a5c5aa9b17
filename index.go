package prefmatch

import (
	"fmt"

	"prefmatch/internal/cancel"
	"prefmatch/internal/core"
	"prefmatch/internal/index"
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
	return matchWave(ix.ix, ix.capacities, queries, opts, cancel.Token{}, &stats.Counters{})
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
// already-built index, charging c, and never mutates the index: SB keeps the
// skyline of remaining objects on the side, so the same tree can serve the
// next wave — or, through read-only snapshots, other waves running
// concurrently. When c is not the index's own sink, NewMatcher redirects the
// index's accounting to c for the run and restores it when the matching
// completes or fails (drain runs it to one or the other).
func matchWave(tree index.ObjectIndex, capacities map[index.ObjID]int, queries []Query, opts *Options, tok cancel.Token, c *stats.Counters) (*Result, error) {
	fns, copts, err := waveInputs(tree.Dim(), queries, opts)
	if err != nil {
		return nil, err
	}
	copts.Capacities = capacities
	copts.Cancel = tok
	copts.Counters = c
	inner, err := core.NewMatcher(tree, fns, copts)
	if err != nil {
		return nil, err
	}
	return (&Matcher{inner: inner, c: c}).drain(min(tree.Len(), len(queries)))
}
