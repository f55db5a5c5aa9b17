// Package mem implements the pure in-memory serving backend of
// index.ObjectIndex: an STR-bulk-loaded R-tree over the object set with the
// same node fan-outs and the same best-first traversal surface as the paged
// backend (internal/index/paged), but with no simulated pages, no LRU buffer
// and no per-access accounting — ReadNode is a slice lookup returning a
// pointer into the node arena.
//
// Use it on the serving path, where wall-clock latency is the metric; use
// the paged backend to reproduce the paper's I/O measurements. Both backends
// yield the identical stable matching for every algorithm (see the
// cross-backend equivalence tests in internal/core).
//
// # Storage layout
//
// The arena is columnar: nodes are values in one flat []node slice (NodeID =
// slot), and node payloads are windows into contiguous per-level slabs built
// by BulkLoad — one dim-strided coordinate slab plus one object-ID slab
// shared by every leaf (leaf entry rects are degenerate views of the same
// coordinates), and flat dim-strided lo/hi slabs plus a child slab shared by
// every internal node of a level. Traversal is therefore sequential memory,
// BulkLoad performs O(levels) large allocations instead of O(nodes) small
// ones, and snapshots share the slabs. Nodes additionally implement
// index.FlatLeaf and index.FlatInternal, so scoring loops can run over the
// raw slabs with no per-entry interface dispatch.
//
// Deletion removes the leaf entry, tightens the ancestor MBRs, dissolves
// nodes that become empty and collapses single-child roots. Unlike the paged
// backend it performs no minimum-fill re-insertion: under-full nodes cannot
// affect correctness of best-first search or skyline traversal, and the
// matchers only ever shrink the index, so rebalancing buys nothing on the
// serving path. A mutated node's payload is rebuilt copy-on-write rather
// than edited in place, so points and rects previously handed out (which
// alias the slabs) stay intact — the same guarantee the pointer-arena
// layout gave for free.
//
// # Concurrency
//
// An *Index is not safe for concurrent use directly — Delete and BulkLoad
// restructure the arena and SetCounters swaps the sink. But because ReadNode
// performs no accounting and no buffering, traversal is pure, and the
// backend implements index.Snapshotter: Snapshot returns a read-only view
// sharing the node arena with a private counter sink. Any number of
// goroutines may traverse their own snapshots concurrently as long as no
// goroutine mutates the parent index (the freeze contract of the
// Snapshotter interface). Delete on a snapshot fails with an error
// wrapping index.ErrReadOnly.
//
// The backend's mutation story is bulk-load-once plus the matchers'
// consuming Delete; there is no live insert (that is the dynamic
// backend's job — it layers a write tier over this arena and subsumes
// the copy-on-write Delete with tombstones).
package mem

import (
	"fmt"

	"prefmatch/internal/index"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// Options configures an Index.
type Options struct {
	// PageSize is the virtual page size in bytes used only to derive the
	// node fan-outs (so the tree has the same shape as a paged index built
	// with the same setting); no pages are allocated. Defaults to 4096.
	PageSize int
	// Counters receives the work accounting the backend reports (tree
	// deletes only — the memory backend performs no I/O). Optional.
	Counters *stats.Counters
}

// node is one arena slot, a value in the Index's flat []node arena. Leaves
// hold parallel id/coordinate windows into the leaf slabs (ids[i]'s point is
// the dim-strided pts[i*dim:(i+1)*dim]; its entry rect is the degenerate
// rectangle over the same storage). Internal nodes hold dim-strided lo/hi
// MBR windows plus a child window into their level's slabs. A dead node
// (freed by Delete) has no payload.
type node struct {
	leaf bool
	dead bool
	dim  int32

	// leaf payload
	ids []index.ObjID
	pts []float64

	// internal payload
	lo, hi   []float64
	children []index.NodeID
}

var (
	_ index.Node         = (*node)(nil)
	_ index.FlatLeaf     = (*node)(nil)
	_ index.FlatInternal = (*node)(nil)
)

func (n *node) Leaf() bool { return n.leaf }

func (n *node) Len() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.children)
}

func (n *node) Rect(i int) vec.Rect {
	d := int(n.dim)
	if n.leaf {
		p := vec.Point(n.pts[i*d : (i+1)*d : (i+1)*d])
		return vec.Rect{Lo: p, Hi: p} // degenerate; shares storage deliberately
	}
	return vec.Rect{
		Lo: vec.Point(n.lo[i*d : (i+1)*d : (i+1)*d]),
		Hi: vec.Point(n.hi[i*d : (i+1)*d : (i+1)*d]),
	}
}

func (n *node) ChildPage(i int) index.NodeID {
	if n.leaf {
		panic("mem: ChildPage on leaf node")
	}
	return n.children[i]
}

func (n *node) Object(i int) index.Item {
	if !n.leaf {
		panic("mem: Object on internal node")
	}
	d := int(n.dim)
	return index.Item{ID: n.ids[i], Point: vec.Point(n.pts[i*d : (i+1)*d : (i+1)*d])}
}

// FlatItems exposes the leaf's columnar payload (index.FlatLeaf).
func (n *node) FlatItems() ([]index.ObjID, []float64) { return n.ids, n.pts }

// FlatRects exposes the internal node's columnar MBRs (index.FlatInternal).
func (n *node) FlatRects() ([]float64, []float64) { return n.lo, n.hi }

func (n *node) mbr() vec.Rect {
	if n.leaf {
		return vec.MBROfFlatPoints(n.pts, int(n.dim))
	}
	return vec.MBROfFlatRects(n.lo, n.hi, int(n.dim))
}

// Index is the in-memory backend. It is not safe for concurrent use
// directly; concurrent readers each take a Snapshot (see the package
// comment's Concurrency section).
type Index struct {
	dim   int
	nodes []node // flat value arena; NodeID = slot; dead = freed
	freed int    // count of freed slots (slots are never recycled)
	root  index.NodeID
	size  int
	c     *stats.Counters

	maxLeaf, maxInternal int
}

var _ index.ObjectIndex = (*Index)(nil)

// New creates an empty in-memory index of the given dimensionality.
func New(dim int, opts *Options) (*Index, error) {
	if dim < 1 {
		return nil, fmt.Errorf("mem: dimension %d < 1", dim)
	}
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.Counters == nil {
		o.Counters = &stats.Counters{}
	}
	ix := &Index{
		dim:         dim,
		root:        index.InvalidNode,
		c:           o.Counters,
		maxLeaf:     index.LeafCapacity(o.PageSize, dim),
		maxInternal: index.InternalCapacity(o.PageSize, dim),
	}
	if ix.maxLeaf < 2 || ix.maxInternal < 2 {
		return nil, fmt.Errorf("mem: page size %d too small for dimension %d", o.PageSize, dim)
	}
	return ix, nil
}

// Build bulk-loads items into a fresh in-memory index.
func Build(dim int, items []index.Item, opts *Options) (*Index, error) {
	ix, err := New(dim, opts)
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(items); err != nil {
		return nil, err
	}
	return ix, nil
}

// Dim returns the index's dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.size }

// NumPages returns the number of live nodes (the backend's "pages").
func (ix *Index) NumPages() int { return len(ix.nodes) - ix.freed }

// RootPage returns the root node, or index.InvalidNode when empty.
func (ix *Index) RootPage() index.NodeID { return ix.root }

// Counters returns the counter sink.
func (ix *Index) Counters() *stats.Counters { return ix.c }

// SetCounters redirects work accounting to c.
func (ix *Index) SetCounters(c *stats.Counters) {
	if c == nil {
		panic("mem: nil counters")
	}
	ix.c = c
}

// ReadNode returns the node at id. No buffer, no decode, no accounting.
func (ix *Index) ReadNode(id index.NodeID) (index.Node, error) {
	n, err := ix.node(id)
	if err != nil {
		return nil, err
	}
	return n, nil
}

func (ix *Index) node(id index.NodeID) (*node, error) {
	if id < 0 || int(id) >= len(ix.nodes) || ix.nodes[id].dead {
		return nil, fmt.Errorf("mem: invalid node %d", id)
	}
	return &ix.nodes[id], nil
}

// alloc appends a node to the arena. Only BulkLoad allocates, so pointers
// handed out by ReadNode are never invalidated by arena growth.
func (ix *Index) alloc(n node) index.NodeID {
	ix.nodes = append(ix.nodes, n)
	return index.NodeID(len(ix.nodes) - 1)
}

func (ix *Index) freeNode(id index.NodeID) {
	ix.nodes[id] = node{dead: true}
	ix.freed++
}

// --- Snapshots ---------------------------------------------------------

// snapshot is a read-only view of an Index: it captures the root and size at
// creation time, shares the node arena (and therefore the slabs), and owns
// its counter sink. All traversal methods delegate to the parent without
// touching shared mutable state, so concurrent snapshots never race with
// each other.
type snapshot struct {
	ix   *Index
	root index.NodeID
	size int
	c    *stats.Counters
}

var (
	_ index.ObjectIndex = (*snapshot)(nil)
	_ index.Snapshotter = (*Index)(nil)
)

// Snapshot returns a read-only view of the index with a fresh counter sink,
// safe for concurrent traversal alongside other snapshots. The view is valid
// while the parent index is not mutated (Snapshotter's freeze contract).
func (ix *Index) Snapshot() index.ObjectIndex {
	return &snapshot{ix: ix, root: ix.root, size: ix.size, c: &stats.Counters{}}
}

func (s *snapshot) Dim() int                  { return s.ix.dim }
func (s *snapshot) Len() int                  { return s.size }
func (s *snapshot) RootPage() index.NodeID    { return s.root }
func (s *snapshot) NumPages() int             { return s.ix.NumPages() }
func (s *snapshot) Counters() *stats.Counters { return s.c }

// SetCounters redirects the snapshot's accounting only; the parent index's
// sink is untouched, which is what lets one frozen index serve many matchers
// that each insist on their own counters.
func (s *snapshot) SetCounters(c *stats.Counters) {
	if c == nil {
		panic("mem: nil counters")
	}
	s.c = c
}

// ReadNode returns the node at id, exactly like the parent's ReadNode: a
// pure arena lookup.
func (s *snapshot) ReadNode(id index.NodeID) (index.Node, error) {
	n, err := s.ix.node(id)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Delete always fails: snapshots are read-only.
func (s *snapshot) Delete(id index.ObjID, p vec.Point) error {
	return index.ReadOnlyError("a mem snapshot")
}

// Validate delegates to the parent (a read-only walk).
func (s *snapshot) Validate() error { return s.ix.Validate() }

// --- Bulk loading (STR) -----------------------------------------------

// BulkLoad builds the index from scratch using Sort-Tile-Recursive packing,
// replacing any existing content. It mirrors the paged backend's packing
// (same slab recursion, same balanced group sizes, same tie-breaks) so both
// backends traverse structurally identical trees. Storage is columnar: each
// level's node payloads are windows into exactly-sized contiguous slabs, so
// loading n items costs O(levels) large allocations, not O(nodes) small
// ones.
func (ix *Index) BulkLoad(items []index.Item) error {
	d := ix.dim
	for i := range items {
		if len(items[i].Point) != d {
			return fmt.Errorf("mem: item %d has dimension %d, want %d", i, len(items[i].Point), d)
		}
	}
	ix.nodes = nil
	ix.freed = 0
	ix.root = index.InvalidNode
	ix.size = 0
	if len(items) == 0 {
		return nil
	}

	perm, sizes := index.STRItems(items, d, ix.maxLeaf)

	// Leaf level: one object-ID slab and one dim-strided coordinate slab
	// shared by every leaf, filled in packing order. Copying the coordinates
	// into the slab also detaches the index from the caller's point storage.
	idSlab := make([]index.ObjID, len(items))
	ptSlab := make([]float64, len(items)*d)
	for i, src := range perm {
		idSlab[i] = items[src].ID
		copy(ptSlab[i*d:(i+1)*d], items[src].Point)
	}
	ix.nodes = make([]node, 0, 2*len(sizes)+1)

	// The level being packed, one entry per node: its MBR in flat lo/hi
	// slabs and its ID.
	lo := make([]float64, len(sizes)*d)
	hi := make([]float64, len(sizes)*d)
	kids := make([]index.NodeID, len(sizes))
	off := 0
	for g, sz := range sizes {
		end := off + sz
		n := node{
			leaf: true,
			dim:  int32(d),
			ids:  idSlab[off:end:end],
			pts:  ptSlab[off*d : end*d : end*d],
		}
		vec.FlatPointsMBR(lo[g*d:(g+1)*d], hi[g*d:(g+1)*d], n.pts)
		kids[g] = ix.alloc(n)
		off = end
	}
	for len(kids) > 1 {
		perm, sizes := index.STRGroups(lo, hi, kids, d, ix.maxInternal)
		// Internal level: exactly-sized flat lo/hi/child slabs shared by the
		// level's nodes (one entry per node of the level below).
		loSlab := make([]float64, len(kids)*d)
		hiSlab := make([]float64, len(kids)*d)
		kidSlab := make([]index.NodeID, len(kids))
		for i, src := range perm {
			s := int(src)
			copy(loSlab[i*d:(i+1)*d], lo[s*d:(s+1)*d])
			copy(hiSlab[i*d:(i+1)*d], hi[s*d:(s+1)*d])
			kidSlab[i] = kids[s]
		}
		lo = make([]float64, len(sizes)*d)
		hi = make([]float64, len(sizes)*d)
		kids = make([]index.NodeID, len(sizes))
		off := 0
		for g, sz := range sizes {
			end := off + sz
			n := node{
				leaf:     false,
				dim:      int32(d),
				lo:       loSlab[off*d : end*d : end*d],
				hi:       hiSlab[off*d : end*d : end*d],
				children: kidSlab[off:end:end],
			}
			vec.FlatRectsMBR(lo[g*d:(g+1)*d], hi[g*d:(g+1)*d], n.lo, n.hi)
			kids[g] = ix.alloc(n)
			off = end
		}
	}
	ix.root = kids[0]
	ix.size = len(items)
	return nil
}

// --- Deletion ----------------------------------------------------------

// Delete removes the object (id, p). Ancestor MBRs are tightened, emptied
// nodes dissolved and a single-child root chain collapsed; no minimum-fill
// re-insertion is performed (see the package comment). Mutated nodes are
// rebuilt copy-on-write so previously handed-out points and rects (which
// alias the slabs) stay intact.
func (ix *Index) Delete(id index.ObjID, p vec.Point) error {
	if len(p) != ix.dim {
		return fmt.Errorf("mem: deleting dimension %d from dimension-%d index", len(p), ix.dim)
	}
	if ix.root == index.InvalidNode {
		return index.ErrNotFound
	}
	ix.c.TreeDeletes++
	found, _, _, err := ix.deleteRec(ix.root, id, p)
	if err != nil {
		return err
	}
	if !found {
		return index.ErrNotFound
	}
	ix.size--

	// Collapse the root chain: an internal root with a single child is
	// replaced by that child; an empty leaf root empties the index.
	for {
		n, err := ix.node(ix.root)
		if err != nil {
			return err
		}
		if n.leaf {
			if len(n.ids) == 0 {
				ix.freeNode(ix.root)
				ix.root = index.InvalidNode
			}
			return nil
		}
		if len(n.children) != 1 {
			return nil
		}
		child := n.children[0]
		ix.freeNode(ix.root)
		ix.root = child
	}
}

// deleteRec removes (id, p) from the subtree at nid. It reports whether the
// item was found, whether the node is now empty (so the caller dissolves
// it), and the node's tightened MBR (valid when found && !empty).
func (ix *Index) deleteRec(nid index.NodeID, id index.ObjID, p vec.Point) (found, empty bool, newRect vec.Rect, err error) {
	n, err := ix.node(nid)
	if err != nil {
		return false, false, vec.Rect{}, err
	}
	d := ix.dim
	if n.leaf {
		for i := range n.ids {
			if n.ids[i] == id && p.Equal(vec.Point(n.pts[i*d:(i+1)*d])) {
				if len(n.ids) == 1 {
					n.ids, n.pts = nil, nil
					return true, true, vec.Rect{}, nil
				}
				ids := make([]index.ObjID, 0, len(n.ids)-1)
				ids = append(append(ids, n.ids[:i]...), n.ids[i+1:]...)
				pts := make([]float64, 0, len(n.pts)-d)
				pts = append(append(pts, n.pts[:i*d]...), n.pts[(i+1)*d:]...)
				n.ids, n.pts = ids, pts
				return true, false, n.mbr(), nil
			}
		}
		return false, false, vec.Rect{}, nil
	}
	// Try every child whose MBR contains p (R-trees may overlap).
	for i := 0; i < len(n.children); i++ {
		if !n.Rect(i).ContainsPoint(p) {
			continue
		}
		f, childEmpty, childRect, err := ix.deleteRec(n.children[i], id, p)
		if err != nil {
			return false, false, vec.Rect{}, err
		}
		if !f {
			continue
		}
		if childEmpty {
			ix.freeNode(n.children[i])
			children := make([]index.NodeID, 0, len(n.children)-1)
			children = append(append(children, n.children[:i]...), n.children[i+1:]...)
			lo := make([]float64, 0, len(n.lo)-d)
			lo = append(append(lo, n.lo[:i*d]...), n.lo[(i+1)*d:]...)
			hi := make([]float64, 0, len(n.hi)-d)
			hi = append(append(hi, n.hi[:i*d]...), n.hi[(i+1)*d:]...)
			n.children, n.lo, n.hi = children, lo, hi
		} else {
			lo := append([]float64(nil), n.lo...)
			hi := append([]float64(nil), n.hi...)
			copy(lo[i*d:(i+1)*d], childRect.Lo)
			copy(hi[i*d:(i+1)*d], childRect.Hi)
			n.lo, n.hi = lo, hi
		}
		if len(n.children) == 0 {
			return true, true, vec.Rect{}, nil
		}
		return true, false, n.mbr(), nil
	}
	return false, false, vec.Rect{}, nil
}

// --- Validation --------------------------------------------------------

// Validate checks structural invariants: tight MBRs, uniform leaf depth, no
// node referenced twice, no overflow, consistent columnar payloads, and size
// consistency. Minimum fill is deliberately not enforced (deletion dissolves
// empty nodes only).
func (ix *Index) Validate() error {
	if ix.root == index.InvalidNode {
		if ix.size != 0 {
			return fmt.Errorf("mem: empty root with size %d", ix.size)
		}
		return nil
	}
	d := ix.dim
	seen := make(map[index.NodeID]bool, len(ix.nodes))
	count := 0
	depthSeen := -1
	var walk func(id index.NodeID, depth int) (vec.Rect, error)
	walk = func(id index.NodeID, depth int) (vec.Rect, error) {
		if seen[id] {
			return vec.Rect{}, fmt.Errorf("mem: node %d referenced twice", id)
		}
		seen[id] = true
		n, err := ix.node(id)
		if err != nil {
			return vec.Rect{}, err
		}
		if n.Len() == 0 {
			return vec.Rect{}, fmt.Errorf("mem: empty node %d at depth %d", id, depth)
		}
		if int(n.dim) != d {
			return vec.Rect{}, fmt.Errorf("mem: node %d has dimension %d, want %d", id, n.dim, d)
		}
		if n.leaf {
			if len(n.ids) > ix.maxLeaf {
				return vec.Rect{}, fmt.Errorf("mem: leaf %d overflows: %d > %d", id, len(n.ids), ix.maxLeaf)
			}
			if len(n.pts) != len(n.ids)*d {
				return vec.Rect{}, fmt.Errorf("mem: leaf %d has %d coordinates for %d items", id, len(n.pts), len(n.ids))
			}
			if depthSeen == -1 {
				depthSeen = depth
			} else if depth != depthSeen {
				return vec.Rect{}, fmt.Errorf("mem: leaves at depths %d and %d", depthSeen, depth)
			}
			count += len(n.ids)
			return n.mbr(), nil
		}
		if len(n.children) > ix.maxInternal {
			return vec.Rect{}, fmt.Errorf("mem: node %d overflows: %d > %d", id, len(n.children), ix.maxInternal)
		}
		if len(n.lo) != len(n.children)*d || len(n.hi) != len(n.children)*d {
			return vec.Rect{}, fmt.Errorf("mem: node %d has %d/%d MBR coordinates for %d children", id, len(n.lo), len(n.hi), len(n.children))
		}
		for i := range n.children {
			childRect, err := walk(n.children[i], depth+1)
			if err != nil {
				return vec.Rect{}, err
			}
			if !childRect.Equal(n.Rect(i)) {
				return vec.Rect{}, fmt.Errorf("mem: loose MBR at node %d entry %d", id, i)
			}
		}
		return n.mbr(), nil
	}
	if _, err := walk(ix.root, 0); err != nil {
		return err
	}
	if count != ix.size {
		return fmt.Errorf("mem: size %d but %d items stored", ix.size, count)
	}
	return nil
}

// Items returns all indexed items (test helper).
func (ix *Index) Items() []index.Item {
	var out []index.Item
	if ix.root == index.InvalidNode {
		return out
	}
	var walk func(id index.NodeID)
	walk = func(id index.NodeID) {
		n := &ix.nodes[id]
		if n.leaf {
			for i := range n.ids {
				out = append(out, n.Object(i))
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(ix.root)
	return out
}
