// Package index defines the backend-agnostic object index that the matching
// engine runs against. The paper's algorithms (SB, Brute Force, Chain) are
// defined over an abstract ranked-access index of the object set O; this
// package captures exactly the surface they use, so that the algorithm layer
// (internal/core, internal/skyline, internal/topk) is independent of the
// physical organisation of the index.
//
// Four backend families implement ObjectIndex:
//
//   - internal/index/paged adapts the disk-resident R-tree of internal/rtree:
//     fixed-size pages, an LRU buffer and physical-I/O accounting. It is the
//     paper-faithful backend — the one whose counters reproduce the "I/O
//     accesses" metric of the evaluation.
//   - internal/index/mem is a pure in-memory R-tree with the same node
//     fan-outs and traversal semantics but no simulated pages, no buffer and
//     no per-access accounting. It is the serving backend: use it when
//     wall-clock latency matters and the I/O metric does not.
//   - internal/index/dynamic layers an insert-capable delta R-tree and a
//     tombstone overlay on top of a mem base arena, republishing merged
//     STR-packed snapshots through atomic epoch rotation. It is the live
//     backend: the only family whose MutableIndex surface works while
//     snapshots are being served.
//   - internal/index/sharded is the composite backend: it partitions the
//     object set across N sub-indexes of the other families and joins them
//     under a synthetic root whose entries carry the shard bounding boxes,
//     so branch-and-bound traversals prune whole shards, and matching waves
//     can run across shards in parallel. Over dynamic shards it also
//     routes live writes, with independent per-shard rotation.
//
// All backends produce the identical stable matching for every algorithm,
// because the matchers' tie-breaks depend only on object scores, coordinate
// sums and IDs — never on the physical node layout.
//
// # Concurrency
//
// An ObjectIndex is single-goroutine by default. This is not an
// implementation accident but part of the contract: ReadNode may mutate
// internal state (the paged backend's LRU buffer reorders and evicts on
// every access), Delete restructures the tree, and SetCounters swaps the
// accounting sink that every operation writes through.
//
// Backends whose node reads are pure — the memory backend's ReadNode is a
// slice lookup with no accounting — additionally implement Snapshotter.
// Snapshot returns a read-only view that shares the node storage but owns
// its counter sink, so N snapshots can serve N goroutines concurrently: the
// paper's SB algorithm never mutates the object index (it maintains the
// skyline of remaining objects on the side), which makes one index legally
// shareable across parallel matching waves.
//
// # Mutation stories
//
// Every backend states which mutations it supports and what its snapshots
// promise under them:
//
//   - paged: bulk-load once, then Delete only (the matchers' consuming
//     deletes). No live inserts — Insert and Update return an error
//     wrapping ErrReadOnly — and no Snapshotter (its LRU buffer makes
//     every read a mutation).
//   - mem: bulk-load once, then Delete only (an inline copy-on-write
//     rebuild). Snapshots follow the freeze contract: while any snapshot
//     is in use, no goroutine may call Delete or rebuild the parent —
//     readers and writers are never synchronised by the backend.
//   - dynamic: the full MutableIndex surface — Insert, Update, Delete —
//     is safe concurrently with any number of readers. Every snapshot
//     pins the epoch current at Snapshot (or Refresh) time and stays
//     valid forever: mutation publishes a new epoch instead of touching
//     published state. Snapshots additionally implement Epocher.
//   - sharded: inherits its shards' story. Over mem shards the composite
//     is Delete-only under the freeze contract; over dynamic shards it
//     routes the full MutableIndex surface through the Partitioner with
//     independent per-shard epoch rotation.
//
// Delete on any snapshot fails with an error wrapping ErrReadOnly — writes
// always go through the owning index, never through a view.
package index

import (
	"errors"
	"fmt"

	"prefmatch/internal/pagedfile"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// ObjID identifies an indexed object. It is 32 bits in the paged backend's
// on-disk format, so valid IDs fit in 31 bits.
type ObjID int32

// Item is an (object ID, point) pair stored at the leaf level of an index.
type Item struct {
	ID    ObjID
	Point vec.Point
}

// NodeID addresses one node of an ObjectIndex. The paged backend uses it as
// a page number; the memory backend as a slot in its node arena. The engine
// only ever obtains NodeIDs from RootPage and Node.ChildPage and passes them
// back to ReadNode.
type NodeID = pagedfile.PageID

// InvalidNode is the sentinel "no node" value, returned by RootPage when the
// index is empty.
const InvalidNode = pagedfile.InvalidPage

// ErrNotFound is returned by Delete when the object is absent.
var ErrNotFound = errors.New("index: object not found")

// ErrReadOnly is the sentinel wrapped by every mutation rejected on a
// read-only surface: Delete on views obtained from Snapshotter.Snapshot,
// and Insert/Update on backends without a live write tier. Match with
// errors.Is; the concrete errors name the rejecting surface (see
// ReadOnlyError).
var ErrReadOnly = errors.New("index: index is read-only")

// ReadOnlyError builds the error a read-only surface returns from a
// rejected mutation: it names the surface (so the failure is actionable)
// and wraps ErrReadOnly (so errors.Is works across backends). Every
// backend routes its rejections through this one constructor, which is
// what keeps the messages' shape — and the tests pinning them — uniform.
func ReadOnlyError(surface string) error {
	return fmt.Errorf("index: %s is read-only: %w", surface, ErrReadOnly)
}

// Node is a read-only view of one index node. Internal entries carry a child
// node and the child's MBR; leaf entries carry indexed items (their Rect is
// the degenerate rectangle at the item's point). Nodes are owned by the
// index; callers must not retain them across index mutations.
type Node interface {
	// Leaf reports whether the node is a leaf.
	Leaf() bool
	// Len returns the number of entries in the node.
	Len() int
	// Rect returns the MBR of entry i.
	Rect(i int) vec.Rect
	// ChildPage returns the child node of internal entry i.
	ChildPage(i int) NodeID
	// Object returns the item stored at leaf entry i.
	Object(i int) Item
}

// FlatLeaf is an optional extension of Node for backends whose leaf storage
// is columnar: all of a leaf's entries live in two contiguous parallel
// arrays, an object-ID slab and a dim-strided coordinate slab (entry i's
// point occupies coords[i*d:(i+1)*d]). Hot loops — ranked-search scoring,
// BBS key computation — type-assert for it once per node and then run over
// the flat arrays with no per-entry interface dispatch and no per-entry
// allocation. Only meaningful when Leaf() is true; the slices are owned by
// the index and must not be mutated or appended to.
type FlatLeaf interface {
	FlatItems() (ids []ObjID, coords []float64)
}

// FlatInternal is the internal-node counterpart of FlatLeaf: the node's
// entry MBRs live in two contiguous dim-strided slabs (entry i's corners
// occupy lo[i*d:(i+1)*d] and hi[i*d:(i+1)*d]). Only meaningful when Leaf()
// is false; the slices are owned by the index and must not be mutated.
type FlatInternal interface {
	FlatRects() (lo, hi []float64)
}

// ObjectIndex is the ranked-access object index the engine traverses: a
// height-balanced tree of MBR-tagged nodes over a point set, supporting
// best-first traversal (RootPage + ReadNode), deletion of matched objects,
// and redirectable work accounting.
//
// An ObjectIndex is not safe for concurrent use: even read paths may mutate
// backend state (see the package comment's Concurrency section). Backends
// that support concurrent read-only traversal expose it via Snapshotter.
type ObjectIndex interface {
	// Dim returns the dimensionality of the indexed points.
	Dim() int
	// Len returns the number of indexed objects.
	Len() int
	// RootPage returns the root node, or InvalidNode when the index is
	// empty.
	RootPage() NodeID
	// ReadNode returns the node stored at id. In the paged backend this
	// goes through the LRU buffer and a miss is a physical read; in the
	// memory backend it is a pointer dereference.
	ReadNode(id NodeID) (Node, error)
	// Delete removes the object (id, p), returning ErrNotFound (or the
	// backend's equivalent) when it is absent. The Brute Force and Chain
	// matchers delete every matched object.
	Delete(id ObjID, p vec.Point) error
	// NumPages returns the current node count of the index (physical pages
	// for the paged backend); a size diagnostic.
	NumPages() int
	// Counters returns the counter sink charged with the index's work.
	Counters() *stats.Counters
	// SetCounters redirects the index's work accounting to c (non-nil), so
	// a matcher can attribute every access of a run to its own sink.
	SetCounters(c *stats.Counters)
	// Validate checks the backend's structural invariants (tight MBRs,
	// uniform leaf depth, size consistency); a test and audit hook.
	Validate() error
}

// MutableIndex is the live-write seam: an ObjectIndex whose object set can
// change while it serves. Backends implement it only when every mutation is
// safe under concurrent readers — readers holding a snapshot keep a
// consistent view across any interleaving of writes (the dynamic backend
// rotates epochs; the sharded composite routes to dynamic shards). The
// bulk-load-once backends deliberately do not implement it: mem and paged
// expose only the matchers' consuming Delete, and reject live inserts with
// an error wrapping ErrReadOnly.
type MutableIndex interface {
	ObjectIndex
	// Insert adds the object (id, p). Inserting an ID that is already
	// present is an error; the point is cloned, the caller keeps p.
	Insert(id ObjID, p vec.Point) error
	// Update moves object id to point p, returning ErrNotFound (or the
	// backend's equivalent) when the object is absent. Equivalent to a
	// Delete of the old point plus an Insert of the new one, applied as
	// one atomic step: no reader observes the object absent.
	Update(id ObjID, p vec.Point) error
}

// Epocher is implemented by snapshots (and indexes) of the mutable
// backends: Epoch returns the monotonically increasing version of the
// state the view is pinned to. Two reads against the same view at the same
// epoch see bit-identical state; a merge or write publishes a higher
// epoch without disturbing pinned views.
type Epocher interface {
	Epoch() uint64
}

// Snapshotter is implemented by backends whose node reads are free of side
// effects and can therefore hand out concurrent read-only views. The
// memory, dynamic and sharded-over-either backends implement it; the paged
// backend does not (its LRU buffer makes every read a mutation).
type Snapshotter interface {
	// Snapshot returns a read-only view of the index as of the call: it
	// shares the node storage with its parent but owns a fresh counter
	// sink, so each concurrent reader gets private work accounting.
	// Delete on the view returns an error wrapping ErrReadOnly.
	//
	// Validity under parent mutation is the backend's declared story (see
	// the package comment): mem views require the freeze contract (no
	// Delete, no rebuild while the view is in use), while dynamic views
	// pin an epoch and stay valid under arbitrary concurrent writes.
	Snapshot() ObjectIndex
}
