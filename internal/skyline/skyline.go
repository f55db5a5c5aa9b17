// Package skyline implements the skyline machinery of the SB matcher:
//
//   - ComputeSkyline: the BBS algorithm of Papadias et al. (reference [5] of
//     the paper) — a best-first R-tree traversal on distance to the best
//     corner that visits only the non-dominated portion of the tree;
//   - pruned-entry bookkeeping (§ IV-B): every entry discarded because a
//     skyline object dominates it is appended to that object's plist, and
//     each pruned entry lives in exactly one plist;
//   - UpdateSkyline (§ IV-B): when skyline objects are removed (assigned to
//     functions), their plists are redistributed — entries dominated by a
//     surviving skyline object move to its plist, the rest are en-heaped
//     into the candidate set Scand and BBS resumes from there.
//
// Two alternative maintenance modes reproduce the baselines the paper argues
// against: re-running BBS from scratch after every removal, and re-running
// the constrained traversal of [5] (pruning with the surviving skyline but
// without plists). All modes produce identical skylines; they differ only in
// I/O, which is exactly what the ablation benchmarks measure.
//
// Every pruning decision — a popped entry, an expanded child, a plist entry
// being redistributed — asks whether some current skyline member dominates
// a point. domSet answers it from a columnar mirror of the skyline split
// into cells, one per subtree of the root (at most maxCells; on a sharded
// composite the subtrees are the shards). Every entry carries the cell of
// the subtree it lies in. A test probes the entry's own cell first, then
// the others, and scans only cells whose max corner is ≥ the point in every
// coordinate, since no other cell can hold a dominator. Each cell is
// sorted by descending coordinate sum, and a scan stops at the first
// member whose sum is below the point's. That early exit is exact: a
// dominator is ≥ the point in every coordinate, and floating-point
// addition in a fixed order is monotone under round-to-nearest, so its
// computed sum is never smaller. The set returns the first dominator its
// probes reach, which need not be the member discovered first. Any
// dominator is a valid plist owner, so the skyline sets, pop order and I/O
// do not depend on which one it returns.
package skyline

import (
	"fmt"
	"math"

	"prefmatch/internal/index"
	"prefmatch/internal/pagedfile"
	"prefmatch/internal/pqueue"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// Mode selects the skyline maintenance strategy.
type Mode int

const (
	// MaintainPlist is the paper's contribution (§ IV-B): pruned-entry lists
	// make updates touch only the region exclusively dominated by the
	// removed objects.
	MaintainPlist Mode = iota
	// MaintainRetraverse re-runs the constrained BBS traversal of [5] from
	// the root after each removal, pruning with the surviving skyline but
	// keeping no plists.
	MaintainRetraverse
	// MaintainRecompute recomputes the skyline from scratch after each
	// removal ("unacceptably expensive", § IV-B).
	MaintainRecompute
)

// String names the mode for benchmark labels.
func (m Mode) String() string {
	switch m {
	case MaintainPlist:
		return "plist"
	case MaintainRetraverse:
		return "retraverse"
	case MaintainRecompute:
		return "recompute"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Object is a current skyline member together with its pruned-entry list.
type Object struct {
	ID    index.ObjID
	cell  int8 // dominance-set cell: the root subtree it came from
	Point vec.Point
	Sum   float64 // cached coordinate sum (tie-break key)

	// The plist is a chain through the maintainer's entry arena, from slot
	// head to slot tail (both 0 when empty).
	head, tail int32
	plen       int
}

// PlistLen reports the number of entries currently parked under this object
// (diagnostic / test hook).
func (o *Object) PlistLen() int { return o.plen }

// item is a BBS heap element or plist member: either an R-tree node entry or
// an individual object. Only an entry's best point takes part in dominance,
// so a node keeps its MBR's Hi corner and nothing else. cell is the
// dominance-set cell of the root subtree the entry lies in (childCell). It
// fits the padding after isObj, so an item stays 48 bytes.
type item struct {
	dist  float64          // L1 distance of hi to the best corner
	hi    vec.Point        // the object's point, or the node MBR's Hi corner
	id    index.ObjID      // objects
	page  pagedfile.PageID // nodes
	next  int32            // next arena slot of the plist holding this entry, 0 at the end
	isObj bool
	cell  int8
}

// rootItem wraps the root page in an item with an unbounded best corner: it
// can never be dominated and its -Inf key pops it first, so the true root
// MBR does not need to be known before the first read. It lies in no cell.
func rootItem(page pagedfile.PageID, dim int) item {
	hi := make(vec.Point, dim)
	for i := range hi {
		hi[i] = math.Inf(1)
	}
	return item{dist: math.Inf(-1), page: page, hi: hi, cell: noCell}
}

// childCell returns the cell of child i of an n-entry node in cell parent:
// below the root a child inherits its parent's cell, and child i of the
// root starts cell i, or cell ⌊maxCells·i/n⌋ when the root has more than
// maxCells children.
func childCell(parent int8, i, n int) int8 {
	switch {
	case parent != noCell:
		return parent
	case n > maxCells:
		return int8(maxCells * i / n)
	default:
		return int8(i)
	}
}

// less orders the BBS heap: ascending distance to the best corner; ties are
// broken deterministically (nodes before objects, then page / object ID).
// Correctness only needs the distance order — if p dominates q then
// dist(p) < dist(q), so no later pop can dominate an earlier one.
func less(a, b item) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.isObj != b.isObj {
		return !a.isObj
	}
	if !a.isObj {
		return a.page < b.page
	}
	return a.id < b.id
}

// Maintainer owns the current skyline of the live objects in an R-tree and
// keeps it consistent as objects are removed by the matcher.
type Maintainer struct {
	tree index.ObjectIndex
	c    *stats.Counters
	mode Mode

	sky      []*Object
	index    map[index.ObjID]int // object ID -> position in sky
	excluded map[index.ObjID]bool
	computed bool

	// dom mirrors sky, by cell and in descending-sum order, for the
	// dominance tests; sky itself keeps discovery order, which SB's loop
	// order depends on.
	dom domSet

	// arena holds every plist entry; slot 0 is a sentinel, so a zero link
	// ends a list. Parking an entry appends one slot, and redistributing a
	// removed object's plist relinks its slots to their new owners without
	// copying them, so a wave's plist traffic allocates only the arena's
	// growth.
	arena []item

	// frontier is the reusable BBS heap scratch. Compute and every Remove
	// mode run one traversal at a time, so a single queue serves all call
	// sites; Reset keeps the backing array, so repeated waves over the same
	// maintainer stop allocating heaps.
	frontier pqueue.Queue[item]
}

// New creates a maintainer over t. A nil counters uses the tree's.
func New(t index.ObjectIndex, mode Mode, c *stats.Counters) *Maintainer {
	if c == nil {
		c = t.Counters()
	}
	m := &Maintainer{
		tree:     t,
		c:        c,
		mode:     mode,
		index:    map[index.ObjID]int{},
		excluded: map[index.ObjID]bool{},
		arena:    make([]item, 1),
	}
	m.frontier.Init(less)
	return m
}

// park appends it to o's plist in a fresh arena slot.
func (m *Maintainer) park(o *Object, it item) {
	m.arena = append(m.arena, it)
	m.link(o, int32(len(m.arena)-1))
}

// link appends arena slot i to the end of o's plist.
func (m *Maintainer) link(o *Object, i int32) {
	m.arena[i].next = 0
	if o.tail == 0 {
		o.head = i
	} else {
		m.arena[o.tail].next = i
	}
	o.tail = i
	o.plen++
}

// heap returns the maintainer's scratch queue, emptied and charging to the
// maintainer's counters, ready for one BBS traversal.
func (m *Maintainer) heap() *pqueue.Queue[item] {
	m.frontier.Reset()
	m.frontier.SetCounters(m.c)
	return &m.frontier
}

// Skyline returns the current skyline in a deterministic (discovery) order.
// Callers must not mutate the slice.
func (m *Maintainer) Skyline() []*Object { return m.sky }

// Size returns the current skyline cardinality.
func (m *Maintainer) Size() int { return len(m.sky) }

// Computed reports whether the initial computation has run.
func (m *Maintainer) Computed() bool { return m.computed }

// Compute runs the initial BBS pass over the whole tree (Algorithm 1,
// line 4) and records pruned entries into plists.
func (m *Maintainer) Compute() error {
	m.reset()
	h := m.heap()
	if root := m.tree.RootPage(); root != pagedfile.InvalidPage {
		h.Push(rootItem(root, m.tree.Dim()))
	}
	if err := m.run(h, m.mode != MaintainPlist, nil); err != nil {
		return err
	}
	m.computed = true
	m.c.ObserveSkylineSize(len(m.sky))
	return nil
}

// reset empties the skyline before a traversal from scratch.
func (m *Maintainer) reset() {
	m.sky = m.sky[:0]
	clear(m.index)
	m.dom.Reset()
	m.arena = m.arena[:1]
}

// Remove deletes the given objects from the skyline (they have been matched)
// and restores the skyline of the remaining live objects, per the configured
// mode. It returns the newly promoted skyline objects so the matcher can
// refresh its caches. The ids must be distinct current skyline members;
// otherwise Remove fails before changing anything.
func (m *Maintainer) Remove(ids []index.ObjID) (added []*Object, err error) {
	if !m.computed {
		return nil, fmt.Errorf("skyline: Remove before Compute")
	}
	if len(ids) == 0 {
		return nil, nil
	}
	drop := make(map[index.ObjID]bool, len(ids))
	for _, id := range ids {
		if _, ok := m.index[id]; !ok {
			return nil, fmt.Errorf("skyline: object %d is not a skyline member", id)
		}
		if drop[id] {
			return nil, fmt.Errorf("skyline: object %d listed twice", id)
		}
		drop[id] = true
	}
	m.c.SkylineUpdates++
	removed := make([]*Object, 0, len(ids))
	for _, id := range ids {
		removed = append(removed, m.sky[m.index[id]])
		m.excluded[id] = true
	}
	// Compact the skyline slice, preserving order.
	kept := m.sky[:0]
	for _, s := range m.sky {
		if !drop[s.ID] {
			kept = append(kept, s)
		}
	}
	m.sky = kept
	m.dom.Drop(drop)
	for _, id := range ids {
		delete(m.index, id)
	}
	for i, s := range m.sky {
		m.index[s.ID] = i
	}

	before := len(m.sky)
	switch m.mode {
	case MaintainPlist:
		// Redistribute the removed objects' plists (§ IV-B): entries
		// dominated by a survivor move to its plist; the rest — exclusively
		// dominated by the removed objects — form the candidate heap Scand.
		// Entries keep their order, and moved ones keep their arena slot.
		scand := m.heap()
		for _, r := range removed {
			for i := r.head; i != 0; {
				next := m.arena[i].next
				if owner := m.dom.Dominator(m.arena[i].hi, m.arena[i].cell, m.c); owner != nil {
					m.link(owner, i)
				} else {
					scand.Push(m.arena[i])
				}
				i = next
			}
			r.head, r.tail, r.plen = 0, 0, 0
		}
		if err := m.run(scand, false, nil); err != nil {
			return nil, err
		}
	case MaintainRetraverse:
		// Constrained re-traversal of [5]: restart from the root, prune
		// with the surviving skyline, skip already-known members.
		h := m.heap()
		if root := m.tree.RootPage(); root != pagedfile.InvalidPage {
			h.Push(rootItem(root, m.tree.Dim()))
		}
		known := make(map[index.ObjID]bool, len(m.sky))
		for _, s := range m.sky {
			known[s.ID] = true
		}
		if err := m.run(h, true, known); err != nil {
			return nil, err
		}
	case MaintainRecompute:
		// Full recomputation from scratch. Report as "added" only the
		// objects that were not skyline members before this call.
		prev := make(map[index.ObjID]bool, len(m.sky))
		for _, s := range m.sky {
			prev[s.ID] = true
		}
		m.reset()
		h := m.heap()
		if root := m.tree.RootPage(); root != pagedfile.InvalidPage {
			h.Push(rootItem(root, m.tree.Dim()))
		}
		if err := m.run(h, true, nil); err != nil {
			return nil, err
		}
		m.c.ObserveSkylineSize(len(m.sky))
		var fresh []*Object
		for _, s := range m.sky {
			if drop[s.ID] {
				return nil, fmt.Errorf("skyline: removed object %d resurfaced", s.ID)
			}
			if !prev[s.ID] {
				fresh = append(fresh, s)
			}
		}
		return fresh, nil
	}
	m.c.ObserveSkylineSize(len(m.sky))
	return m.sky[before:], nil
}

// run executes the BBS loop: pop items in ascending best-corner distance;
// attach dominated items to their dominator's plist (unless skipPlist);
// promote surviving objects to the skyline; expand surviving nodes.
// known, when non-nil, marks object IDs that are already skyline members and
// must not be re-added (used by the re-traversal mode).
func (m *Maintainer) run(h *pqueue.Queue[item], skipPlist bool, known map[index.ObjID]bool) error {
	for {
		it, ok := h.Pop()
		if !ok {
			return nil
		}
		if it.isObj && m.excluded[it.id] {
			continue
		}
		if it.isObj && known != nil && known[it.id] {
			continue
		}
		if owner := m.dom.Dominator(it.hi, it.cell, m.c); owner != nil {
			if !skipPlist {
				m.park(owner, it)
			}
			continue
		}
		if it.isObj {
			s := &Object{ID: it.id, Point: it.hi, Sum: it.hi.Sum(), cell: it.cell}
			m.index[s.ID] = len(m.sky)
			m.sky = append(m.sky, s)
			m.dom.Insert(s)
			continue
		}
		n, err := m.tree.ReadNode(it.page)
		if err != nil {
			return err
		}
		if m.expandFlat(n, it.cell, h, skipPlist) {
			continue
		}
		for i := 0; i < n.Len(); i++ {
			var child item
			if n.Leaf() {
				obj := n.Object(i)
				if m.excluded[obj.ID] {
					continue
				}
				child = item{dist: obj.Point.BestCornerDist(), isObj: true, id: obj.ID, hi: obj.Point}
			} else {
				r := n.Rect(i)
				child = item{dist: r.BestCornerDist(), page: n.ChildPage(i), hi: r.Hi}
			}
			child.cell = childCell(it.cell, i, n.Len())
			if owner := m.dom.Dominator(child.hi, child.cell, m.c); owner != nil {
				if !skipPlist {
					m.park(owner, child)
				}
				continue
			}
			h.Push(child)
		}
	}
}

// expandFlat is the columnar-storage fast path of the BBS expansion loop:
// when the backend exposes flat node payloads (index.FlatLeaf /
// index.FlatInternal — the memory backend does), the entry points and MBR
// corners are read straight off the dim-strided slabs, with one interface
// assertion per node instead of an Object/Rect dispatch per entry. The heap
// keys are computed by the same Point.BestCornerDist accumulation as the
// generic path, so the traversal (and every tie-break) is bit-identical.
// cell is the expanded node's own cell. Reports false when the node has no
// flat payload.
func (m *Maintainer) expandFlat(n index.Node, cell int8, h *pqueue.Queue[item], skipPlist bool) bool {
	d := m.tree.Dim()
	if n.Leaf() {
		fl, ok := n.(index.FlatLeaf)
		if !ok {
			return false
		}
		ids, pts := fl.FlatItems()
		for i, id := range ids {
			if m.excluded[id] {
				continue
			}
			p := vec.Point(pts[i*d : i*d+d : i*d+d])
			child := item{dist: p.BestCornerDist(), isObj: true, id: id, hi: p, cell: childCell(cell, i, len(ids))}
			if owner := m.dom.Dominator(p, child.cell, m.c); owner != nil {
				if !skipPlist {
					m.park(owner, child)
				}
				continue
			}
			h.Push(child)
		}
		return true
	}
	fi, ok := n.(index.FlatInternal)
	if !ok {
		return false
	}
	_, hi := fi.FlatRects()
	for i := 0; i < n.Len(); i++ {
		hiP := vec.Point(hi[i*d : i*d+d : i*d+d])
		child := item{dist: hiP.BestCornerDist(), page: n.ChildPage(i), hi: hiP, cell: childCell(cell, i, n.Len())}
		if owner := m.dom.Dominator(hiP, child.cell, m.c); owner != nil {
			if !skipPlist {
				m.park(owner, child)
			}
			continue
		}
		h.Push(child)
	}
	return true
}
