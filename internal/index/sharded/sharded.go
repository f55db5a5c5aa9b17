// Package sharded implements the composite backend of index.ObjectIndex: the
// object set is split across N sub-indexes (shards) by a pluggable
// Partitioner, each shard is an ObjectIndex of its own (memory, paged or
// dynamic), and the composite presents them as one index again.
//
// The composite's tree is the shards' trees joined under one synthetic root:
// an internal node with one entry per non-empty shard, whose MBR is the
// shard's bounding box and whose child is the shard's root. Node IDs are the
// shard-local IDs tagged with the shard number in the high bits, so the
// engine's best-first traversals run unmodified — and because every entry of
// the synthetic root carries the shard MBR, branch-and-bound consumers
// (ranked search, skyline, SB matching) prune whole shards exactly like any
// other subtree: a shard whose MBR cannot beat the current threshold is
// never read. Reading the synthetic root itself costs nothing (it is a
// routing table, not a page).
//
// All result-level guarantees of the other backends carry over: the
// matchers' tie-breaks depend only on object scores, coordinate sums and
// IDs, never on the physical node layout, so every algorithm returns the
// identical assignments and scores it returns on a single index, for any
// shard count and any partitioner (enforced by the cross-shard equivalence
// tests).
//
// Ranked search and matching therefore need nothing shard-specific: a
// top-k walk over a composite snapshot reads the synthetic root, descends
// into the shards whose MBR bound can still reach the k-th result, and
// never reads the others; an SB wave's skyline traversal prunes a shard
// whose MBR corner is dominated, and its dominance tests keep one cell per
// shard (the root's children; beyond 16 shards, 16 cells of adjacent
// shards). Each snapshot records which shards its walks
// entered since it was last pinned, and SettleShardReads turns that into
// per-shard accounting: a shard is searched when a walk read its nodes, and
// pruned when a walk read the synthetic root but never entered the shard
// (also counted in stats.Counters.ShardsPruned). ShardLoadAt and QuerySkew
// report the totals.
//
// # Concurrency
//
// Like every backend, the composite is single-goroutine for direct
// traversal. It implements index.Snapshotter by composing per-shard
// snapshots when every shard supports snapshots (memory and dynamic shards
// do, paged shards do not); use CanSnapshot to check before calling
// Snapshot, which panics on snapshot-incapable shards.
//
// # Live writes
//
// Over shards that implement index.MutableIndex (the dynamic backend), the
// composite does too: Insert routes new objects through the Partitioner's
// live rule (Route), Update stays inside the owning shard, and each shard
// rotates its epochs independently — a merge in one shard never blocks
// writes or reads in another. Writers are serialised by an internal lock;
// the synthetic-root entry table is replaced copy-on-write, so snapshots
// (which capture the table under the same lock) stay consistent cuts. Over
// mem or paged shards, Insert and Update fail with an error wrapping
// index.ErrReadOnly; gate with CanMutate.
package sharded

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/obs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// Node-ID layout: the low localBits carry the shard-local node ID, the bits
// above carry the shard number, and the synthetic root gets the one ID no
// (shard, local) pair can produce. Everything stays within the positive
// int32 range of index.NodeID.
const (
	localBits = 22
	maxLocal  = 1<<localBits - 1

	// MaxShards is the largest supported shard count (the widest shard tag
	// that keeps composite node IDs positive 31-bit values).
	MaxShards = 1 << 8

	rootID = index.NodeID(1) << 30
)

func encode(shard int, local index.NodeID) index.NodeID {
	if local < 0 || local > maxLocal {
		panic(fmt.Sprintf("sharded: shard %d node %d outside the %d-bit local ID space", shard, local, localBits))
	}
	return index.NodeID(shard)<<localBits | local
}

func decode(id index.NodeID) (shard int, local index.NodeID) {
	return int(id >> localBits), id & maxLocal
}

// BuildShardFunc bulk-loads one shard from its slice of the partition.
// Implementations choose the backend (and its page size, buffer and counter
// sink); the default builds memory shards.
type BuildShardFunc func(dim int, items []index.Item) (index.ObjectIndex, error)

// Options configures a composite index.
type Options struct {
	// Shards is the number of sub-indexes, 1..MaxShards. Required.
	Shards int
	// Partitioner splits the object set across the shards. Defaults to
	// Spatial (tight per-shard MBRs; see Partitioner for the baselines).
	Partitioner Partitioner
	// BuildShard bulk-loads one shard. Defaults to memory shards with the
	// given PageSize and Counters.
	BuildShard BuildShardFunc
	// PageSize is passed to the default shard builder (node fan-outs).
	// Ignored when BuildShard is set.
	PageSize int
	// Counters is the composite's work sink, shared with every shard (a
	// single-goroutine index charges one sink). Optional.
	Counters *stats.Counters
	// WrapShard, when set, post-processes each built shard before the
	// composite adopts it — the chaos-test seam: wrap one shard in a
	// fault-injecting view (internal/index/faulty) to model a slow or
	// poisoned shard. The returned index must still satisfy whatever the
	// composite needs from the shard (Snapshotter for serving,
	// MutableIndex for writes).
	WrapShard func(shard int, ix index.ObjectIndex) index.ObjectIndex
}

// rootEntry is one entry of the synthetic root: a non-empty shard, its
// current MBR and its current root, pre-encoded.
type rootEntry struct {
	shard int
	rect  vec.Rect
	child index.NodeID
}

// rootNode adapts a rootEntry slice to index.Node.
type rootNode []rootEntry

var _ index.Node = rootNode(nil)

func (n rootNode) Leaf() bool                   { return false }
func (n rootNode) Len() int                     { return len(n) }
func (n rootNode) Rect(i int) vec.Rect          { return n[i].rect }
func (n rootNode) ChildPage(i int) index.NodeID { return n[i].child }
func (n rootNode) Object(i int) index.Item      { panic("sharded: Object on the synthetic root") }

// shardNode wraps a shard's node so that child IDs leave tagged with the
// shard number.
type shardNode struct {
	index.Node
	shard int32
}

func (n shardNode) ChildPage(i int) index.NodeID {
	return encode(int(n.shard), n.Node.ChildPage(i))
}

// flatNode is a node exposing both columnar payloads (the memory backend's
// nodes do).
type flatNode interface {
	index.FlatLeaf
	index.FlatInternal
}

// flatShardNode additionally forwards the wrapped node's columnar payload,
// so the engine's flat fast paths (ranked-search scoring, BBS keys) survive
// the shard wrapper. Forwarding is safe: object IDs are global and entry
// MBRs carry no child IDs — ChildPage remains the tagging override.
type flatShardNode struct {
	shardNode
}

func (n flatShardNode) FlatItems() ([]index.ObjID, []float64) {
	return n.Node.(index.FlatLeaf).FlatItems()
}

func (n flatShardNode) FlatRects() ([]float64, []float64) {
	return n.Node.(index.FlatInternal).FlatRects()
}

// Index is the composite backend. Mutations (Insert, Update, Delete) and
// snapshot-taking are serialised by an internal lock, so over mutable
// shards the composite inherits the dynamic backend's story: writes are
// safe under concurrent snapshot readers. Direct traversal of the
// composite itself remains single-goroutine (take a Snapshot to read
// concurrently; see the package comment's Concurrency section).
type Index struct {
	dim    int
	shards []index.ObjectIndex
	router Partitioner
	c      *stats.Counters

	canSnap bool
	canMut  bool // every shard implements index.MutableIndex
	part    string

	// mu guards entries, byID and size. Writers replace the entries slice
	// copy-on-write — never edit it in place — because published rootNode
	// views (snapshots, in-flight traversals) alias the old backing array.
	mu      sync.RWMutex
	entries []rootEntry         // synthetic-root entries, non-empty shards in shard order
	byID    map[index.ObjID]int // object -> shard, for write routing
	size    int

	// loads is per-shard search accounting (atomic, settled by snapshots
	// without touching mu) — the skew signal the serving layer exports per
	// shard.
	loads []shardLoad
}

// shardLoad is one shard's live search accounting.
type shardLoad struct {
	queries atomic.Int64 // settled requests whose walks entered this shard
	pruned  atomic.Int64 // settled requests whose walks skipped it whole
}

// ShardLoad is a point-in-time copy of one shard's search accounting, as
// settled by composite snapshots (SettleShardReads). Queries counts the
// settled requests whose walks read the shard, Pruned those that read the
// synthetic root but skipped the shard whole on its MBR bound. A shard
// whose Queries run far above the mean is hot — the re-partitioning signal;
// one that is all Pruned is carrying dead space.
type ShardLoad struct {
	Queries int64
	Pruned  int64
}

var (
	_ index.ObjectIndex  = (*Index)(nil)
	_ index.MutableIndex = (*Index)(nil)
	_ index.Snapshotter  = (*Index)(nil)
)

// Build partitions items across opts.Shards sub-indexes and assembles the
// composite. The items slice is not modified (the partitioner works on a
// copy).
func Build(dim int, items []index.Item, opts *Options) (*Index, error) {
	if dim < 1 {
		return nil, fmt.Errorf("sharded: dimension %d < 1", dim)
	}
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.Shards < 1 || o.Shards > MaxShards {
		return nil, fmt.Errorf("sharded: shard count %d outside 1..%d", o.Shards, MaxShards)
	}
	if o.Partitioner == nil {
		o.Partitioner = Spatial{}
	}
	if o.Counters == nil {
		o.Counters = &stats.Counters{}
	}
	if o.BuildShard == nil {
		pageSize, c := o.PageSize, o.Counters
		o.BuildShard = func(dim int, items []index.Item) (index.ObjectIndex, error) {
			return mem.Build(dim, items, &mem.Options{PageSize: pageSize, Counters: c})
		}
	}
	for i := range items {
		if len(items[i].Point) != dim {
			return nil, fmt.Errorf("sharded: item %d has dimension %d, want %d", i, len(items[i].Point), dim)
		}
	}

	scratch := make([]index.Item, len(items))
	copy(scratch, items)
	groups := o.Partitioner.Partition(scratch, o.Shards)
	if len(groups) != o.Shards {
		return nil, fmt.Errorf("sharded: partitioner %q returned %d groups for %d shards", o.Partitioner.Name(), len(groups), o.Shards)
	}

	ix := &Index{
		dim:     dim,
		shards:  make([]index.ObjectIndex, o.Shards),
		router:  o.Partitioner,
		byID:    make(map[index.ObjID]int, len(items)),
		c:       o.Counters,
		canSnap: true,
		canMut:  true,
		part:    o.Partitioner.Name(),
		loads:   make([]shardLoad, o.Shards),
	}
	for s, g := range groups {
		shard, err := o.BuildShard(dim, g)
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", s, err)
		}
		if o.WrapShard != nil {
			shard = o.WrapShard(s, shard)
		}
		if shard.NumPages() > maxLocal {
			return nil, fmt.Errorf("sharded: shard %d has %d nodes, beyond the %d-bit local ID space", s, shard.NumPages(), localBits)
		}
		ix.shards[s] = shard
		if _, ok := shard.(index.Snapshotter); !ok {
			ix.canSnap = false
		}
		if _, ok := shard.(index.MutableIndex); !ok {
			ix.canMut = false
		}
		for _, it := range g {
			if prev, dup := ix.byID[it.ID]; dup {
				return nil, fmt.Errorf("sharded: partitioner %q placed object %d in shards %d and %d", o.Partitioner.Name(), it.ID, prev, s)
			}
			ix.byID[it.ID] = s
		}
		ix.size += len(g)
	}
	if ix.size != len(items) {
		return nil, fmt.Errorf("sharded: partitioner %q kept %d of %d items", o.Partitioner.Name(), ix.size, len(items))
	}
	for s := range ix.shards {
		e, ok, err := ix.computeEntry(s)
		if err != nil {
			return nil, err
		}
		if ok {
			ix.entries = append(ix.entries, e)
		}
	}
	return ix, nil
}

// computeEntry derives shard s's synthetic-root entry — current root plus
// MBR — by reading the shard's root node. ok is false for an empty shard.
func (ix *Index) computeEntry(s int) (rootEntry, bool, error) {
	root := ix.shards[s].RootPage()
	if root == index.InvalidNode {
		return rootEntry{}, false, nil
	}
	n, err := ix.shards[s].ReadNode(root)
	if err != nil {
		return rootEntry{}, false, err
	}
	rects := make([]vec.Rect, n.Len())
	for i := range rects {
		rects[i] = n.Rect(i)
	}
	return rootEntry{shard: s, rect: vec.MBROfRects(rects), child: encode(s, root)}, true, nil
}

// refreshEntry re-derives shard s's entry after a mutation: replacing it,
// dropping it when the shard emptied, or inserting it (at its shard-order
// position) when a previously empty shard received its first object. The
// entries slice is replaced copy-on-write — published rootNode views alias
// the old backing array and must keep seeing their epoch. Callers hold mu.
func (ix *Index) refreshEntry(s int) error {
	e, ok, err := ix.computeEntry(s)
	if err != nil {
		return err
	}
	at := -1 // s's current position, or -1
	for i := range ix.entries {
		if ix.entries[i].shard == s {
			at = i
			break
		}
	}
	switch {
	case at >= 0 && ok: // replace
		next := make([]rootEntry, len(ix.entries))
		copy(next, ix.entries)
		next[at] = e
		ix.entries = next
	case at >= 0: // drop
		next := make([]rootEntry, 0, len(ix.entries)-1)
		next = append(next, ix.entries[:at]...)
		next = append(next, ix.entries[at+1:]...)
		ix.entries = next
	case ok: // insert in shard order
		pos := len(ix.entries)
		for i := range ix.entries {
			if ix.entries[i].shard > s {
				pos = i
				break
			}
		}
		next := make([]rootEntry, 0, len(ix.entries)+1)
		next = append(next, ix.entries[:pos]...)
		next = append(next, e)
		next = append(next, ix.entries[pos:]...)
		ix.entries = next
	}
	return nil
}

// rootEntries returns the current synthetic-root entries. The slice is
// immutable once published (refreshEntry replaces it wholesale), so callers
// may keep iterating it after the lock is released.
func (ix *Index) rootEntries() []rootEntry {
	ix.mu.RLock()
	e := ix.entries
	ix.mu.RUnlock()
	return e
}

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed objects across all shards.
func (ix *Index) Len() int {
	ix.mu.RLock()
	n := ix.size
	ix.mu.RUnlock()
	return n
}

// NumShards returns the shard count.
func (ix *Index) NumShards() int { return len(ix.shards) }

// PartitionerName returns the Name of the partitioner the composite was
// built with.
func (ix *Index) PartitionerName() string { return ix.part }

// ShardSizes returns the current object count of every shard (diagnostics,
// balance tables).
func (ix *Index) ShardSizes() []int {
	sizes := make([]int, len(ix.shards))
	for i, s := range ix.shards {
		sizes[i] = s.Len()
	}
	return sizes
}

// NumPages returns the total node count across shards (the synthetic root is
// a routing table, not a page).
func (ix *Index) NumPages() int {
	n := 0
	for _, s := range ix.shards {
		n += s.NumPages()
	}
	return n
}

// RootPage returns the synthetic root, or index.InvalidNode when every shard
// is empty.
func (ix *Index) RootPage() index.NodeID {
	if len(ix.rootEntries()) == 0 {
		return index.InvalidNode
	}
	return rootID
}

// Counters returns the composite's counter sink.
func (ix *Index) Counters() *stats.Counters { return ix.c }

// SetCounters redirects the composite's and every shard's accounting to c,
// so a matcher that hijacks the index sink captures shard-level work (I/O,
// deletes) too.
func (ix *Index) SetCounters(c *stats.Counters) {
	if c == nil {
		panic("sharded: nil counters")
	}
	ix.c = c
	for _, s := range ix.shards {
		s.SetCounters(c)
	}
}

// ReadNode resolves the synthetic root, or routes to the owning shard and
// re-tags the returned node's children.
func (ix *Index) ReadNode(id index.NodeID) (index.Node, error) {
	return readNode(ix.shards, ix.rootEntries(), id)
}

func readNode(shards []index.ObjectIndex, entries []rootEntry, id index.NodeID) (index.Node, error) {
	if id == rootID {
		return rootNode(entries), nil
	}
	shard, local := decode(id)
	if shard < 0 || shard >= len(shards) {
		return nil, fmt.Errorf("sharded: invalid node %d", id)
	}
	n, err := shards[shard].ReadNode(local)
	if err != nil {
		return nil, err
	}
	sn := shardNode{Node: n, shard: int32(shard)}
	if _, ok := n.(flatNode); ok {
		return flatShardNode{sn}, nil
	}
	return sn, nil
}

// Delete routes the deletion to the shard that holds the object and tightens
// that shard's synthetic-root entry (dropping it when the shard empties).
func (ix *Index) Delete(id index.ObjID, p vec.Point) error {
	if len(p) != ix.dim {
		return fmt.Errorf("sharded: deleting dimension %d from dimension-%d index", len(p), ix.dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	s, ok := ix.byID[id]
	if !ok {
		return index.ErrNotFound
	}
	if err := ix.shards[s].Delete(id, p); err != nil {
		return err
	}
	delete(ix.byID, id)
	ix.size--
	return ix.refreshEntry(s)
}

// CanMutate reports whether every shard implements index.MutableIndex — the
// precondition of Insert and Update. Dynamic shards qualify; mem and paged
// shards do not.
func (ix *Index) CanMutate() bool { return ix.canMut }

// Insert routes the object to a shard chosen by the partitioner's live
// routing rule and inserts it there, growing the synthetic root when the
// shard was empty. The write is one atomic step against concurrent
// Snapshot calls; readers holding earlier snapshots are undisturbed
// (dynamic shards rotate epochs). Fails with an error wrapping
// index.ErrReadOnly when the shards do not support live writes.
func (ix *Index) Insert(id index.ObjID, p vec.Point) error {
	if len(p) != ix.dim {
		return fmt.Errorf("sharded: inserting dimension %d into dimension-%d index", len(p), ix.dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.canMut {
		return index.ReadOnlyError("the sharded composite over non-mutable shards (build it over dynamic shards for live writes)")
	}
	if s, dup := ix.byID[id]; dup {
		return fmt.Errorf("sharded: object %d is already indexed (shard %d)", id, s)
	}
	s := ix.route(id, p)
	if err := ix.shards[s].(index.MutableIndex).Insert(id, p); err != nil {
		return err
	}
	ix.byID[id] = s
	ix.size++
	return ix.refreshEntry(s)
	// No local-ID-space check is needed on the growth path: the dynamic
	// backend constructs every node ID below 1<<22, inside the composite's
	// local space, and rejects overflow itself.
}

// Update moves object id to point p inside the shard that holds it (live
// routing never migrates an object across shards — the object's ID keeps
// resolving to one shard's write tier). Fails with an error wrapping
// index.ErrReadOnly when the shards do not support live writes, and with
// index.ErrNotFound when the object is absent.
func (ix *Index) Update(id index.ObjID, p vec.Point) error {
	if len(p) != ix.dim {
		return fmt.Errorf("sharded: updating to dimension %d in dimension-%d index", len(p), ix.dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.canMut {
		return index.ReadOnlyError("the sharded composite over non-mutable shards (build it over dynamic shards for live writes)")
	}
	s, ok := ix.byID[id]
	if !ok {
		return index.ErrNotFound
	}
	if err := ix.shards[s].(index.MutableIndex).Update(id, p); err != nil {
		return err
	}
	return ix.refreshEntry(s)
}

// PointOf returns a copy of object id's current point, or ok=false when the
// object is not indexed or its shard cannot report points. Serving layers
// use it to delete by ID alone.
func (ix *Index) PointOf(id index.ObjID) (vec.Point, bool) {
	ix.mu.RLock()
	s, ok := ix.byID[id]
	ix.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if p, ok := ix.shards[s].(interface {
		PointOf(index.ObjID) (vec.Point, bool)
	}); ok {
		return p.PointOf(id)
	}
	return nil, false
}

// Epoch sums the shard epochs (index.Epocher): any accepted write or shard
// merge anywhere in the composite advances it. Zero over non-rotating
// shards.
func (ix *Index) Epoch() uint64 {
	var e uint64
	for _, s := range ix.shards {
		if ep, ok := s.(index.Epocher); ok {
			e += ep.Epoch()
		}
	}
	return e
}

// DeltaSize sums the shards' current write-tier sizes (zero over
// non-dynamic shards).
func (ix *Index) DeltaSize() int {
	total := 0
	for _, s := range ix.shards {
		if d, ok := s.(interface{ DeltaSize() int }); ok {
			total += d.DeltaSize()
		}
	}
	return total
}

// MergesCompleted sums the shards' published background merges.
func (ix *Index) MergesCompleted() int64 {
	var total int64
	for _, s := range ix.shards {
		if m, ok := s.(interface{ MergesCompleted() int64 }); ok {
			total += m.MergesCompleted()
		}
	}
	return total
}

// Compact forces a synchronous write-tier merge on every shard that
// supports one, in shard order. Each shard rotates independently; readers
// pinned to earlier epochs are undisturbed.
func (ix *Index) Compact() {
	for _, s := range ix.shards {
		if c, ok := s.(interface{ Compact() }); ok {
			c.Compact()
		}
	}
}

// Shutdown quiesces every shard that has a merge lifecycle (the dynamic
// backend), sharing one bound across all of them: each shard's merge
// policy is stopped, and any in-flight background merge is given what is
// left of the bound to settle. Per-shard failures are joined, tagged with
// the shard number. Safe to call more than once.
func (ix *Index) Shutdown(bound time.Duration) error {
	deadline := time.Now().Add(bound)
	var errs []error
	for i, s := range ix.shards {
		sd, ok := s.(interface{ Shutdown(time.Duration) error })
		if !ok {
			continue
		}
		remaining := time.Until(deadline)
		if remaining < 0 {
			remaining = 0
		}
		if err := sd.Shutdown(remaining); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Tombstones sums the shards' base-tier tombstone counts (zero over
// non-dynamic shards).
func (ix *Index) Tombstones() int {
	total := 0
	for _, s := range ix.shards {
		if t, ok := s.(interface{ Tombstones() int }); ok {
			total += t.Tombstones()
		}
	}
	return total
}

// EpochAge returns the age of the *oldest* shard epoch — the staleness of
// the composite is bounded by its most stale shard. Zero over non-rotating
// shards.
func (ix *Index) EpochAge() time.Duration {
	var oldest time.Duration
	for _, s := range ix.shards {
		if e, ok := s.(interface{ EpochAge() time.Duration }); ok {
			if age := e.EpochAge(); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// SetMergeMetrics forwards the merge sinks to every shard that rotates:
// all shards observe into the same histograms, which is exactly the
// roll-up (histogram merging is associative and the shards' merges are
// independent events on one serving index).
func (ix *Index) SetMergeMetrics(mm *obs.MergeMetrics) {
	for _, s := range ix.shards {
		if m, ok := s.(interface{ SetMergeMetrics(*obs.MergeMetrics) }); ok {
			m.SetMergeMetrics(mm)
		}
	}
}

// ShardLoadAt returns shard i's search accounting.
func (ix *Index) ShardLoadAt(i int) ShardLoad {
	l := &ix.loads[i]
	return ShardLoad{Queries: l.queries.Load(), Pruned: l.pruned.Load()}
}

// QuerySkew reports max/mean over the shards' query counts — 1.0 is a
// perfectly balanced load, rising values mean pruning (or routing) is
// concentrating work on few shards. Returns 0 before any search settled.
func (ix *Index) QuerySkew() float64 {
	var total, max int64
	for i := range ix.loads {
		q := ix.loads[i].queries.Load()
		total += q
		if q > max {
			max = q
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(ix.loads))
	return float64(max) / mean
}

// route picks the shard for a live insert via the partitioner's routing
// rule. Callers hold mu.
func (ix *Index) route(id index.ObjID, p vec.Point) int {
	view := RouteView{
		Sizes: make([]int, len(ix.shards)),
		Rects: make([]vec.Rect, len(ix.shards)),
	}
	for s, shard := range ix.shards {
		view.Sizes[s] = shard.Len()
	}
	for _, e := range ix.entries {
		view.Rects[e.shard] = e.rect
	}
	s := ix.router.Route(id, p, view)
	if s < 0 || s >= len(ix.shards) {
		panic(fmt.Sprintf("sharded: partitioner %q routed object %d to shard %d of %d", ix.part, id, s, len(ix.shards)))
	}
	return s
}

// Validate checks every shard's invariants plus the composite's own: one
// synthetic-root entry per non-empty shard, each with the shard's live root
// and tight MBR, and size consistency with the routing map.
func (ix *Index) Validate() error {
	for s, shard := range ix.shards {
		if err := shard.Validate(); err != nil {
			return fmt.Errorf("sharded: shard %d: %w", s, err)
		}
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	byShard := make(map[int]rootEntry, len(ix.entries))
	for _, e := range ix.entries {
		if _, dup := byShard[e.shard]; dup {
			return fmt.Errorf("sharded: shard %d listed twice in the synthetic root", e.shard)
		}
		byShard[e.shard] = e
	}
	prev := -1
	for _, e := range ix.entries {
		if e.shard <= prev {
			return fmt.Errorf("sharded: synthetic-root entries out of shard order at shard %d", e.shard)
		}
		prev = e.shard
	}
	total := 0
	for s, shard := range ix.shards {
		total += shard.Len()
		e, ok, err := ix.computeEntry(s)
		if err != nil {
			return err
		}
		have, listed := byShard[s]
		if ok != listed {
			return fmt.Errorf("sharded: shard %d: empty=%v but listed=%v", s, !ok, listed)
		}
		if ok && have.child != e.child {
			return fmt.Errorf("sharded: shard %d: stale synthetic-root child", s)
		}
		// The entry MBR must bound the shard's live points — the invariant
		// whole-shard pruning rests on. Rect-vs-rect containment against the
		// shard's current root is deliberately NOT required: over dynamic
		// shards both rects are loose upper bounds of the same live set
		// (delta MBRs are not re-tightened on delete, background merges
		// re-pack), so neither needs to contain the other.
		if ok {
			if err := shardPointsWithin(shard, have.rect); err != nil {
				return fmt.Errorf("sharded: shard %d: %w", s, err)
			}
		}
	}
	if total != ix.size {
		return fmt.Errorf("sharded: size %d but shards hold %d items", ix.size, total)
	}
	if len(ix.byID) != ix.size {
		return fmt.Errorf("sharded: size %d but routing map holds %d objects", ix.size, len(ix.byID))
	}
	return nil
}

// shardPointsWithin walks one shard's tree and checks every live point lies
// inside bound. Validation-only: O(shard size). The walk runs over a pinned
// snapshot when the shard supports one, so an in-flight background merge
// cannot swap node storage mid-traversal.
func shardPointsWithin(shard index.ObjectIndex, bound vec.Rect) error {
	if sn, ok := shard.(index.Snapshotter); ok {
		shard = sn.Snapshot()
	}
	root := shard.RootPage()
	if root == index.InvalidNode {
		return nil
	}
	var walk func(id index.NodeID) error
	walk = func(id index.NodeID) error {
		n, err := shard.ReadNode(id)
		if err != nil {
			return err
		}
		for i := 0; i < n.Len(); i++ {
			if !n.Leaf() {
				if err := walk(n.ChildPage(i)); err != nil {
					return err
				}
				continue
			}
			if it := n.Object(i); !bound.ContainsPoint(it.Point) {
				return fmt.Errorf("synthetic-root MBR %v does not cover live object %d at %v", bound, it.ID, it.Point)
			}
		}
		return nil
	}
	return walk(root)
}

// --- Snapshots ---------------------------------------------------------

// CanSnapshot reports whether every shard implements index.Snapshotter —
// the precondition of Snapshot. Memory shards qualify; paged shards do not.
func (ix *Index) CanSnapshot() bool { return ix.canSnap }

// Snapshot composes per-shard snapshots into a read-only view of the
// composite with one fresh shared counter sink. The capture is atomic
// against composite writes (it briefly takes the read lock), so the view is
// a consistent cut: every shard snapshot plus the synthetic-root entries of
// one instant. It panics when the shards cannot snapshot; gate calls with
// CanSnapshot.
func (ix *Index) Snapshot() index.ObjectIndex {
	if !ix.canSnap {
		panic("sharded: Snapshot on shards that do not implement index.Snapshotter (check CanSnapshot)")
	}
	c := &stats.Counters{}
	shards := make([]index.ObjectIndex, len(ix.shards))
	ix.mu.RLock()
	for i, s := range ix.shards {
		snap := s.(index.Snapshotter).Snapshot()
		snap.SetCounters(c)
		shards[i] = snap
	}
	entries := make([]rootEntry, len(ix.entries), len(ix.shards))
	copy(entries, ix.entries)
	size := ix.size
	ix.mu.RUnlock()
	return &snapshot{
		parent:   ix,
		dim:      ix.dim,
		shards:   shards,
		entries:  entries,
		size:     size,
		c:        c,
		searched: make([]bool, len(shards)),
	}
}

// snapshot is the composite read-only view: per-shard snapshots plus the
// synthetic-root entries captured at snapshot time, all charging one private
// sink. Like the sink, the read marks make a view single-goroutine.
type snapshot struct {
	parent  *Index
	dim     int
	shards  []index.ObjectIndex
	entries []rootEntry
	size    int
	c       *stats.Counters

	// Reads since the last Refresh or SettleShardReads: whether the
	// synthetic root was read, and, by shard, whether any of its nodes were.
	rootRead bool
	searched []bool
}

var _ index.ObjectIndex = (*snapshot)(nil)

// Refresh re-pins the view to the composite's current state: each shard
// snapshot that supports re-pinning (the dynamic backend's does) advances
// to its shard's current epoch, and the synthetic-root entries are
// re-copied, all under the composite read lock so the cut stays consistent.
// Over shards without Refresh (mem) this is a no-op per shard, which is
// sound: those shards cannot change while snapshots serve (their freeze
// contract). Allocation-free: the entries buffer is reused. Refresh also
// drops the shard reads recorded since the last settle, so reads of a
// request that never settled (a failed one) are not charged to the next.
func (s *snapshot) Refresh() {
	s.parent.mu.RLock()
	for _, sh := range s.shards {
		if r, ok := sh.(interface{ Refresh() }); ok {
			r.Refresh()
		}
	}
	s.entries = append(s.entries[:0], s.parent.entries...)
	s.size = s.parent.size
	s.parent.mu.RUnlock()
	s.rootRead = false
	clear(s.searched)
}

// SettleShardReads charges the shard reads recorded since the last Refresh
// or settle to the composite's per-shard accounting (ShardLoadAt), then
// clears them. When the synthetic root was read, every shard listed in it
// counts once: as searched if a walk read any of its nodes — which a walk
// reaches only through the shard's root — and otherwise as pruned, which is
// also added to c.ShardsPruned. A view whose root was not read (a request
// answered without a walk) settles nothing. Allocation-free.
func (s *snapshot) SettleShardReads(c *stats.Counters) {
	if s.rootRead {
		for _, e := range s.entries {
			l := &s.parent.loads[e.shard]
			if s.searched[e.shard] {
				l.queries.Add(1)
			} else {
				l.pruned.Add(1)
				c.ShardsPruned++
			}
		}
	}
	s.rootRead = false
	clear(s.searched)
}

// Epoch returns the sum of the shard snapshots' pinned epochs — a monotone
// version of the composite cut (per-shard rotation is independent; the sum
// advances whenever any shard's does). Shards without epochs contribute 0.
func (s *snapshot) Epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		if ep, ok := sh.(index.Epocher); ok {
			e += ep.Epoch()
		}
	}
	return e
}

func (s *snapshot) Dim() int { return s.dim }
func (s *snapshot) Len() int { return s.size }

func (s *snapshot) NumPages() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumPages()
	}
	return n
}

func (s *snapshot) RootPage() index.NodeID {
	if len(s.entries) == 0 {
		return index.InvalidNode
	}
	return rootID
}

func (s *snapshot) Counters() *stats.Counters { return s.c }

// SetCounters redirects the snapshot's accounting — its own sink and every
// shard snapshot's — leaving the parent composite untouched.
func (s *snapshot) SetCounters(c *stats.Counters) {
	if c == nil {
		panic("sharded: nil counters")
	}
	s.c = c
	for _, sh := range s.shards {
		sh.SetCounters(c)
	}
}

// ReadNode resolves id like Index.ReadNode and records the read for
// SettleShardReads.
func (s *snapshot) ReadNode(id index.NodeID) (index.Node, error) {
	if id == rootID {
		s.rootRead = true
	} else if shard, _ := decode(id); shard >= 0 && shard < len(s.searched) {
		s.searched[shard] = true
	}
	return readNode(s.shards, s.entries, id)
}

// Delete always fails: snapshots are read-only.
func (s *snapshot) Delete(id index.ObjID, p vec.Point) error {
	return index.ReadOnlyError("a sharded snapshot")
}

// Validate delegates to the shard snapshots (read-only walks).
func (s *snapshot) Validate() error {
	for i, sh := range s.shards {
		if err := sh.Validate(); err != nil {
			return fmt.Errorf("sharded: shard %d: %w", i, err)
		}
	}
	return nil
}
