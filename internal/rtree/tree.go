package rtree

import (
	"fmt"
	"math"

	"prefmatch/internal/buffer"
	"prefmatch/internal/index"
	"prefmatch/internal/pagedfile"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// DefaultBufferFraction is the paper's default LRU buffer size: 2% of the
// tree size.
const DefaultBufferFraction = 0.02

// minFillRatio is the minimum node occupancy enforced on underflow (40% of
// capacity, the customary R-tree setting).
const minFillRatio = 0.4

// Options configures a Tree.
type Options struct {
	// PageSize in bytes; defaults to pagedfile.DefaultPageSize (4096).
	PageSize int
	// BufferPages fixes the LRU buffer capacity in pages. When zero, the
	// buffer is sized to BufferFraction of the tree after bulk loading
	// (and starts at a small provisional capacity before that).
	BufferPages int
	// BufferFraction is used when BufferPages is zero; defaults to
	// DefaultBufferFraction.
	BufferFraction float64
	// Counters receives all I/O and buffer accounting; optional.
	Counters *stats.Counters
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.PageSize == 0 {
		out.PageSize = pagedfile.DefaultPageSize
	}
	if out.BufferFraction == 0 {
		out.BufferFraction = DefaultBufferFraction
	}
	if out.Counters == nil {
		out.Counters = &stats.Counters{}
	}
	return out
}

// Tree is a disk-resident R-tree over D-dimensional points. It is not safe
// for concurrent use.
type Tree struct {
	dim      int
	opts     Options
	store    *pagedfile.Store
	pool     *buffer.Pool[*Node]
	counters *stats.Counters

	root   pagedfile.PageID
	height int // 0 = empty, 1 = root is a leaf
	size   int // number of indexed objects

	maxLeaf, maxInternal int
	minLeaf, minInternal int
}

// ErrNotFound is returned by Delete when the item is absent. It wraps
// index.ErrNotFound so backend-agnostic callers can test with errors.Is.
var ErrNotFound = fmt.Errorf("rtree: item not found: %w", index.ErrNotFound)

// New creates an empty tree of the given dimensionality.
func New(dim int, opts *Options) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rtree: dimension %d < 1", dim)
	}
	o := opts.withDefaults()
	t := &Tree{
		dim:         dim,
		opts:        o,
		counters:    o.Counters,
		root:        pagedfile.InvalidPage,
		maxLeaf:     leafCapacity(o.PageSize, dim),
		maxInternal: internalCapacity(o.PageSize, dim),
	}
	if t.maxLeaf < 2 || t.maxInternal < 2 {
		return nil, fmt.Errorf("rtree: page size %d too small for dimension %d", o.PageSize, dim)
	}
	// Minimum fill is 40% of capacity, capped at capacity/2 so that any
	// overflowing node can always be split into two legal groups.
	t.minLeaf = max(1, min(int(minFillRatio*float64(t.maxLeaf)), t.maxLeaf/2))
	t.minInternal = max(1, min(int(minFillRatio*float64(t.maxInternal)), t.maxInternal/2))
	t.store = pagedfile.New(o.PageSize, o.Counters)

	bufPages := o.BufferPages
	if bufPages <= 0 {
		bufPages = 64 // provisional until SizeBuffer / bulk load
	}
	t.pool = buffer.New(bufPages, t.loadNode, t.flushNode, o.Counters)
	return t, nil
}

func (t *Tree) loadNode(id pagedfile.PageID) (*Node, error) {
	page := make([]byte, t.opts.PageSize)
	if err := t.store.Read(id, page); err != nil {
		return nil, err
	}
	return decodeNode(page, t.dim)
}

func (t *Tree) flushNode(id pagedfile.PageID, n *Node) error {
	page := make([]byte, t.opts.PageSize)
	if err := encodeNode(n, t.dim, page); err != nil {
		return err
	}
	return t.store.Write(id, page)
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (0 when empty, 1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// NumPages returns the number of live pages in the underlying file.
func (t *Tree) NumPages() int { return t.store.NumPages() }

// RootPage returns the page ID of the root node, or pagedfile.InvalidPage
// when the tree is empty.
func (t *Tree) RootPage() pagedfile.PageID { return t.root }

// Counters returns the counter sink charged with this tree's I/O.
func (t *Tree) Counters() *stats.Counters { return t.counters }

// SetCounters redirects all of the tree's I/O and buffer accounting to c,
// so a matcher can attribute every page access of a run to its own sink.
func (t *Tree) SetCounters(c *stats.Counters) {
	if c == nil {
		panic("rtree: nil counters")
	}
	t.counters = c
	t.store.SetCounters(c)
	t.pool.SetCounters(c)
}

// LeafCapacity returns the maximum number of entries per leaf page.
func (t *Tree) LeafCapacity() int { return t.maxLeaf }

// InternalCapacity returns the maximum number of entries per internal page.
func (t *Tree) InternalCapacity() int { return t.maxInternal }

// BufferCapacity returns the LRU buffer capacity in pages.
func (t *Tree) BufferCapacity() int { return t.pool.Capacity() }

// ReadNode returns the decoded node stored at page id, going through the LRU
// buffer (a miss is a physical read). Callers must treat the node as
// read-only and must not retain it across tree mutations.
func (t *Tree) ReadNode(id pagedfile.PageID) (*Node, error) { return t.pool.Get(id) }

// SizeBuffer sets the LRU buffer to max(1, fraction × current tree pages),
// the paper's "2% of the tree size" policy.
func (t *Tree) SizeBuffer(fraction float64) error {
	pages := max(1, int(math.Ceil(fraction*float64(t.store.NumPages()))))
	return t.pool.Resize(pages)
}

// SetBufferPages fixes the LRU buffer capacity in pages.
func (t *Tree) SetBufferPages(n int) error { return t.pool.Resize(n) }

// DropBuffer flushes and empties the buffer, so the next traversal starts
// cold. Benchmarks call it between runs.
func (t *Tree) DropBuffer() error { return t.pool.Clear() }

// Flush writes back all dirty buffered nodes.
func (t *Tree) Flush() error { return t.pool.FlushAll() }

// writeNode allocates or reuses a page for n, placing it in the buffer as
// dirty (the physical write happens on eviction or Flush, like a real
// buffer manager).
func (t *Tree) putNode(id pagedfile.PageID, n *Node) error {
	return t.pool.Put(id, n, true)
}

// --- Bulk loading (STR) -----------------------------------------------

// BulkLoad builds the tree from scratch using Sort-Tile-Recursive packing
// and replaces any existing content. Points must all have dimension Dim().
// The nodes are written straight to the page file (not through the buffer):
// index construction is part of experimental setup, and benchmarks reset
// the counters afterwards.
func (t *Tree) BulkLoad(items []Item) error {
	for i := range items {
		if len(items[i].Point) != t.dim {
			return fmt.Errorf("rtree: item %d has dimension %d, want %d", i, len(items[i].Point), t.dim)
		}
	}
	// Reset storage.
	t.store = pagedfile.New(t.opts.PageSize, t.counters)
	t.pool = buffer.New(max(1, t.pool.Capacity()), t.loadNode, t.flushNode, t.counters)
	t.root = pagedfile.InvalidPage
	t.height = 0
	t.size = 0
	if len(items) == 0 {
		return nil
	}

	// STR packs every node full, like the paper's static indexes.
	perm, sizes := index.STRItems(items, t.dim, t.maxLeaf)
	level := make([]entry, 0, len(sizes))
	off := 0
	for _, sz := range sizes {
		// The node is encoded to its page at once, so its entries may alias
		// the caller's points.
		n := &Node{leaf: true, entries: make([]entry, sz)}
		for i, src := range perm[off : off+sz] {
			p := items[src].Point
			n.entries[i] = entry{rect: vec.Rect{Lo: p, Hi: p}, obj: items[src].ID}
		}
		off += sz
		id := t.store.Alloc()
		if err := t.flushNode(id, n); err != nil {
			return err
		}
		level = append(level, entry{rect: n.mbr(), child: id})
	}
	t.height = 1
	// Pack internal levels until a single root remains.
	d := t.dim
	for len(level) > 1 {
		lo := make([]float64, len(level)*d)
		hi := make([]float64, len(level)*d)
		kids := make([]pagedfile.PageID, len(level))
		for i, e := range level {
			copy(lo[i*d:(i+1)*d], e.rect.Lo)
			copy(hi[i*d:(i+1)*d], e.rect.Hi)
			kids[i] = e.child
		}
		perm, sizes := index.STRGroups(lo, hi, kids, d, t.maxInternal)
		next := make([]entry, 0, len(sizes))
		off := 0
		for _, sz := range sizes {
			ents := make([]entry, sz)
			for j, src := range perm[off : off+sz] {
				ents[j] = level[src]
			}
			off += sz
			n := &Node{leaf: false, entries: ents}
			id := t.store.Alloc()
			if err := t.flushNode(id, n); err != nil {
				return err
			}
			next = append(next, entry{rect: n.mbr(), child: id})
		}
		level = next
		t.height++
	}
	t.root = level[0].child
	t.size = len(items)

	if t.opts.BufferPages > 0 {
		return t.pool.Resize(t.opts.BufferPages)
	}
	return t.SizeBuffer(t.opts.BufferFraction)
}
