package sharded

import (
	"prefmatch/internal/index"
	"prefmatch/internal/vec"
)

// RouteView is the composite state a Partitioner sees when routing one live
// insert: the current object count of every shard, and the current MBR of
// every non-empty shard (the zero Rect for empty shards — check Sizes
// before trusting a Rect).
type RouteView struct {
	Sizes []int
	Rects []vec.Rect
}

// Partitioner splits an object set across shards. Implementations must be
// deterministic (same items, same n, same groups), must neither drop nor
// duplicate items, and must return exactly n groups — empty groups are legal
// (fewer items than shards, hash holes). Groups may alias the input slice,
// and the input may be reordered in place; callers that need the original
// order pass a copy.
//
// Partitioners also route live inserts (Route), using only the composite
// state in the RouteView, so routing is deterministic given the same
// insertion history.
type Partitioner interface {
	// Name returns a short stable label ("spatial", "hash", "rr") for flags,
	// experiment tables and diagnostics.
	Name() string
	// Partition splits items into exactly n groups.
	Partition(items []index.Item, n int) [][]index.Item
	// Route picks the shard (0..len(view.Sizes)-1) for one live insert,
	// following the same placement idea as Partition.
	Route(id index.ObjID, p vec.Point, view RouteView) int
}

// RoundRobin deals items to shards by input position: item i goes to shard
// i mod n. The simplest baseline — perfectly balanced, no spatial locality,
// so every shard's MBR spans the whole data space and MBR pruning never
// fires.
type RoundRobin struct{}

// Name returns "rr".
func (RoundRobin) Name() string { return "rr" }

// Partition deals items round-robin across n groups.
func (RoundRobin) Partition(items []index.Item, n int) [][]index.Item {
	groups := make([][]index.Item, n)
	for i, it := range items {
		groups[i%n] = append(groups[i%n], it)
	}
	return groups
}

// Route sends a live insert to the currently smallest shard (ties to the
// lowest shard number) — the online equivalent of dealing by position,
// preserving the perfect balance without tracking a cursor.
func (RoundRobin) Route(id index.ObjID, p vec.Point, view RouteView) int {
	best := 0
	for s, sz := range view.Sizes {
		if sz < view.Sizes[best] {
			best = s
		}
	}
	return best
}

// Hash routes each item to shard splitmix64(ID) mod n: the placement a
// shard-per-machine deployment would use, stable under reordering of the
// input and under growth of the object set. Like RoundRobin it is a
// no-locality baseline for MBR pruning.
type Hash struct{}

// Name returns "hash".
func (Hash) Name() string { return "hash" }

// Partition routes items by hashed object ID across n groups.
func (Hash) Partition(items []index.Item, n int) [][]index.Item {
	groups := make([][]index.Item, n)
	for _, it := range items {
		g := splitmix64(uint64(uint32(it.ID))) % uint64(n)
		groups[g] = append(groups[g], it)
	}
	return groups
}

// Route sends a live insert exactly where Partition would: by hashed
// object ID, independent of the composite's current state.
func (Hash) Route(id index.ObjID, p vec.Point, view RouteView) int {
	return int(splitmix64(uint64(uint32(id))) % uint64(len(view.Sizes)))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed integer hash, so consecutive object IDs spread evenly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Spatial tiles the data space with the same Sort-Tile-Recursive recursion
// the backends use for bulk loading, but with the shard count as the target:
// sort along one axis, cut into slabs, recurse on the next axis. Each shard
// covers one tile, so its MBR is tight and disjoint from its siblings along
// the cut axes — the partitioner that makes whole-shard MBR pruning
// effective for top-k and threshold consumers.
type Spatial struct{}

// Name returns "spatial".
func (Spatial) Name() string { return "spatial" }

// Partition tiles items into exactly n spatially coherent groups
// (index.STRTiles). The groups alias one reordered copy of items.
func (Spatial) Partition(items []index.Item, n int) [][]index.Item {
	perm, sizes := index.STRTiles(items, n)
	sorted := make([]index.Item, len(items))
	for i, src := range perm {
		sorted[i] = items[src]
	}
	out := make([][]index.Item, len(sizes))
	off := 0
	for s, sz := range sizes {
		out[s] = sorted[off : off+sz]
		off += sz
	}
	return out
}

// Route sends a live insert to the occupied shard whose MBR needs the
// least enlargement to absorb the point — keeping the tiles tight, which is
// what makes whole-shard pruning effective — with ties broken by smaller
// current area, then smaller size, then lower shard number. Empty shards
// are used first (least-populated empty shard is trivially shard order):
// an empty tile has no MBR to stretch.
func (Spatial) Route(id index.ObjID, p vec.Point, view RouteView) int {
	best := -1
	var bestEnl, bestArea float64
	for s, sz := range view.Sizes {
		if sz == 0 {
			return s
		}
		enl := view.Rects[s].EnlargementPoint(p)
		area := view.Rects[s].Area()
		switch {
		case best == -1, enl < bestEnl, enl == bestEnl && area < bestArea,
			enl == bestEnl && area == bestArea && sz < view.Sizes[best]:
			best, bestEnl, bestArea = s, enl, area
		}
	}
	return best
}
