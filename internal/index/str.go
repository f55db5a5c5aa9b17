package index

import (
	"math"
	"slices"
)

// This file hosts the node-layout formulas and the Sort-Tile-Recursive
// packing shared by the backends. The cross-backend guarantee — both
// backends build structurally identical trees from the same items and page
// size, so every traversal tie-break resolves the same way — holds because
// both call these exact functions; backends must not re-implement them.

// NodeHeaderSize is the per-node header of the paged layout (flags byte,
// entry count, reserved); the memory backend counts it only to derive
// identical fan-outs.
const NodeHeaderSize = 8

// LeafEntrySize returns the on-disk size of one leaf entry for dimension d:
// objID int32 | d × float64.
func LeafEntrySize(d int) int { return 4 + 8*d }

// InternalEntrySize returns the on-disk size of one internal entry:
// child pageID int32 | 2·d × float64 (MBR lo then hi).
func InternalEntrySize(d int) int { return 4 + 16*d }

// LeafCapacity returns how many leaf entries fit in a page.
func LeafCapacity(pageSize, d int) int { return (pageSize - NodeHeaderSize) / LeafEntrySize(d) }

// InternalCapacity returns how many internal entries fit in a page.
func InternalCapacity(pageSize, d int) int {
	return (pageSize - NodeHeaderSize) / InternalEntrySize(d)
}

// STR order. Every sort below orders entries by (key, ID, input position):
// the key is the entry's coordinate on the current axis (its MBR centre's
// on internal levels), compared with < and >, so −0 and +0 tie and the ID
// decides. That order is total, so the packing does not depend on the sort
// algorithm, and with unique IDs the position never decides.
//
// The recursions sort 16-byte records instead of items: the keys are copied
// once into a flat dim-strided slab, each sort loads its records' keys for
// the current axis from that slab, and the records carry the permutation
// from one axis to the next. Each entry point returns that permutation
// (input positions in output order) and the group sizes in output order;
// callers fill their slabs or pages through it.

// strRec is one entry's sort record.
type strRec struct {
	key float64
	id  int32
	pos int32
}

func cmpSTR(a, b strRec) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return int(a.pos) - int(b.pos)
}

// packer is one packing's state: entry i's key on axis a is keys[i*dim+a],
// recs holds the entries in their current order, and sizes the groups
// emitted so far.
type packer struct {
	keys  []float64
	dim   int
	recs  []strRec
	sizes []int
}

// newPacker returns a packer over n entries with zeroed keys and records
// naming positions 0..n-1; the caller fills the keys and record IDs.
func newPacker(n, dim, groups int) packer {
	p := packer{keys: make([]float64, n*dim), dim: dim, recs: make([]strRec, n), sizes: make([]int, 0, groups)}
	for i := range p.recs {
		p.recs[i].pos = int32(i)
	}
	return p
}

// sort orders recs by their keys on axis.
func (p *packer) sort(recs []strRec, axis int) {
	for i := range recs {
		recs[i].key = p.keys[int(recs[i].pos)*p.dim+axis]
	}
	slices.SortFunc(recs, cmpSTR)
}

// result returns the packing's permutation and group sizes.
func (p *packer) result() (perm []int32, sizes []int) {
	perm = make([]int32, len(p.recs))
	for i := range p.recs {
		perm[i] = p.recs[i].pos
	}
	return perm, p.sizes
}

// str packs recs into groups of at most capacity entries: sort on axis d,
// cut into ⌈pages^(1/(dim−d))⌉ slabs of even size, and recurse on the next
// axis; the last axis is cut into ⌈n/capacity⌉ even groups, so no group
// falls below half the capacity (the paged minimum-fill invariant).
func (p *packer) str(recs []strRec, d, capacity int) {
	n := len(recs)
	if n <= capacity {
		p.sizes = append(p.sizes, n)
		return
	}
	p.sort(recs, d)
	pages := ceilDiv(n, capacity)
	if d == p.dim-1 {
		for i := 0; i < pages; i++ {
			p.sizes = append(p.sizes, evenSize(n, pages, i))
		}
		return
	}
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(p.dim-d))))
	start := 0
	for i := 0; i < slabs; i++ {
		end := start + evenSize(n, slabs, i)
		p.str(recs[start:end], d+1, capacity)
		start = end
	}
}

// tile cuts recs into exactly n groups, the spatial partitioner's rule. d
// is the recursion depth; the sort axis is d modulo the dimensionality.
// Each axis gets ⌈n^(1/(dim−d))⌉ slabs (n slabs on the last axis), the n
// groups are spread evenly over the slabs, and the entries over the slabs
// in proportion to their group counts, so every group holds ±1 of the mean.
func (p *packer) tile(recs []strRec, n, d int) {
	if n <= 1 {
		p.sizes = append(p.sizes, len(recs))
		return
	}
	if len(recs) == 0 {
		for i := 0; i < n; i++ {
			p.sizes = append(p.sizes, 0)
		}
		return
	}
	p.sort(recs, d%p.dim)
	slabs := n
	if remaining := p.dim - d; remaining > 1 {
		slabs = min(n, max(1, int(math.Ceil(math.Pow(float64(n), 1/float64(remaining))))))
	}
	start, cum := 0, 0
	for i := 0; i < slabs; i++ {
		sc := evenSize(n, slabs, i)
		cum += sc
		end := len(recs) * cum / n
		p.tile(recs[start:end], sc, d+1)
		start = end
	}
}

// STRItems packs items into leaf groups of at most capacity entries by
// Sort-Tile-Recursive packing: sort on the first axis, cut into slabs,
// recurse on the next axis. Each sort orders entries by (coordinate, ID,
// input position), a total order, so the groups do not depend on the sort
// algorithm. It returns the input positions in packing order and the group
// sizes; items is not modified.
func STRItems(items []Item, dim, capacity int) (perm []int32, sizes []int) {
	p := itemPacker(items, dim, 2*ceilDiv(len(items), capacity)+1)
	p.str(p.recs, 0, capacity)
	return p.result()
}

// STRGroups is STRItems over an already-built level of entries: entry i has
// the dim-strided MBR lo[i*dim:(i+1)*dim], hi[i*dim:(i+1)*dim] and ID
// ids[i]. Each sort orders entries by (MBR centre (lo+hi)/2, ID, position),
// a total order, so the groups do not depend on the sort algorithm.
func STRGroups[ID ~int32](lo, hi []float64, ids []ID, dim, capacity int) (perm []int32, sizes []int) {
	p := newPacker(len(ids), dim, 2*ceilDiv(len(ids), capacity)+1)
	for i := range p.keys {
		p.keys[i] = (lo[i] + hi[i]) / 2
	}
	for i, id := range ids {
		p.recs[i].id = int32(id)
	}
	p.str(p.recs, 0, capacity)
	return p.result()
}

// STRTiles cuts items into exactly n spatially coherent groups, some
// possibly empty, by the same (coordinate, ID, position) sorts with the
// group count as the target (see tile). It returns the input positions in
// tile order and the n group sizes; items is not modified.
func STRTiles(items []Item, n int) (perm []int32, sizes []int) {
	dim := 0
	if len(items) > 0 {
		dim = len(items[0].Point)
	}
	p := itemPacker(items, dim, max(n, 1))
	p.tile(p.recs, n, 0)
	return p.result()
}

// itemPacker returns a packer over the items' points and IDs.
func itemPacker(items []Item, dim, groups int) packer {
	p := newPacker(len(items), dim, groups)
	for i := range items {
		copy(p.keys[i*dim:(i+1)*dim], items[i].Point)
		p.recs[i].id = int32(items[i].ID)
	}
	return p
}

// evenSize is the size of group i when n entries are cut into k groups
// whose sizes differ by at most one, the larger groups first.
func evenSize(n, k, i int) int {
	if i < n%k {
		return n/k + 1
	}
	return n / k
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
