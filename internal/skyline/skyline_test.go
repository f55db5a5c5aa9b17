package skyline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// bruteSkyline computes the skyline of the live items by exhaustive pairwise
// dominance.
func bruteSkyline(items []index.Item, excluded map[index.ObjID]bool) []index.ObjID {
	var out []index.ObjID
	for i := range items {
		if excluded[items[i].ID] {
			continue
		}
		dominated := false
		for j := range items {
			if i == j || excluded[items[j].ID] {
				continue
			}
			if items[j].Point.Dominates(items[i].Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, items[i].ID)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func skyIDs(m *Maintainer) []index.ObjID {
	ids := make([]index.ObjID, 0, m.Size())
	for _, s := range m.Skyline() {
		ids = append(ids, s.ID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func equalIDs(a, b []index.ObjID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildTree(t *testing.T, rng *rand.Rand, n, d, grid int) (paged.Index, []index.Item, *stats.Counters) {
	t.Helper()
	items := make([]index.Item, n)
	for i := range items {
		p := make(vec.Point, d)
		for j := range p {
			if grid > 0 {
				p[j] = float64(rng.Intn(grid)) / float64(grid-1)
			} else {
				p[j] = rng.Float64()
			}
		}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	c := &stats.Counters{}
	tr, err := paged.New(d, &paged.Options{PageSize: 512, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	return tr, items, c
}

func TestComputeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, d, grid int }{
		{50, 2, 0}, {500, 2, 0}, {500, 3, 0}, {500, 4, 0},
		{300, 2, 5}, {300, 3, 4}, // coarse grids: many ties and duplicates
		{1, 2, 0}, {2, 2, 0},
	} {
		tr, items, c := buildTree(t, rng, tc.n, tc.d, tc.grid)
		m := New(tr, MaintainPlist, c)
		if err := m.Compute(); err != nil {
			t.Fatal(err)
		}
		want := bruteSkyline(items, nil)
		if got := skyIDs(m); !equalIDs(got, want) {
			t.Fatalf("n=%d d=%d grid=%d: skyline %v, want %v", tc.n, tc.d, tc.grid, got, want)
		}
	}
}

func TestComputeOnEmptyTree(t *testing.T) {
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tr, MaintainPlist, nil)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 {
		t.Fatalf("skyline of empty set has %d members", m.Size())
	}
}

func TestRemoveBeforeComputeFails(t *testing.T) {
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tr, MaintainPlist, nil)
	if _, err := m.Remove([]index.ObjID{1}); err == nil {
		t.Fatal("Remove before Compute should fail")
	}
}

func TestRemoveNonMemberFails(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			tr, items, c := buildTree(t, rng, 100, 2, 0)
			m := New(tr, mode, c)
			if err := m.Compute(); err != nil {
				t.Fatal(err)
			}
			// Find a non-skyline id.
			member := map[index.ObjID]bool{}
			for _, s := range m.Skyline() {
				member[s.ID] = true
			}
			nonMember := index.ObjID(-1)
			for _, it := range items {
				if !member[it.ID] {
					nonMember = it.ID
					break
				}
			}
			if nonMember < 0 || m.Size() < 2 {
				t.Skip("all objects on skyline; cannot exercise non-member removal")
			}
			first, second := m.Skyline()[0].ID, m.Skyline()[1].ID
			before := append([]*Object(nil), m.Skyline()...)
			updates := c.SkylineUpdates
			// A failed Remove is atomic: a valid member listed before the
			// bad ID must not be excluded, and nothing else may change.
			for _, ids := range [][]index.ObjID{
				{nonMember},
				{first, nonMember},
				{first, first},
			} {
				if _, err := m.Remove(ids); err == nil {
					t.Fatalf("Remove(%v) should fail", ids)
				}
				got := m.Skyline()
				if len(got) != len(before) {
					t.Fatalf("failed Remove(%v) changed the skyline size: %d, want %d", ids, len(got), len(before))
				}
				for i := range got {
					if got[i] != before[i] {
						t.Fatalf("failed Remove(%v) changed skyline slot %d", ids, i)
					}
				}
				if c.SkylineUpdates != updates {
					t.Fatalf("failed Remove(%v) counted as an update", ids)
				}
			}
			// The maintainer is still exact: later valid removals leave the
			// brute-force skyline of what was really removed.
			excluded := map[index.ObjID]bool{}
			for _, id := range []index.ObjID{second, first} {
				if _, err := m.Remove([]index.ObjID{id}); err != nil {
					t.Fatal(err)
				}
				excluded[id] = true
				want := bruteSkyline(items, excluded)
				if got := skyIDs(m); !equalIDs(got, want) {
					t.Fatalf("skyline after removing %d: %v, want %v", id, got, want)
				}
			}
		})
	}
}

// The dominance set answers exactly like a linear Dominates scan over its
// members, across random insert/drop interleavings on a coarse grid (equal
// sums, duplicate points, coordinates equal to a cell's max corner), with
// members in random cells, queries from random own cells (noCell and
// never-used cells included), and for both object points and MBR Hi
// corners. Any dominator is a valid answer; the returned one must be a
// member that really dominates the query. Every cell stays in
// descending-sum order, mirrors its members row for row, and keeps the
// coordinate-wise max of its members as its corner.
func TestDomSetMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const cells = 5
	for _, d := range []int{1, 2, 3, 4} {
		grid := func() vec.Point {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = domGrid[rng.Intn(len(domGrid))]
			}
			return p
		}
		var s domSet
		members := map[index.ObjID]*Object{}
		next := index.ObjID(0)
		c := &stats.Counters{}
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				p := grid()
				o := &Object{ID: next, Point: p, Sum: p.Sum(), cell: int8(rng.Intn(cells))}
				next++
				s.Insert(o)
				members[o.ID] = o
			case r < 5 && len(members) > 0:
				gone := map[index.ObjID]bool{}
				for id := range members {
					if rng.Intn(3) == 0 {
						gone[id] = true
						delete(members, id)
					}
				}
				s.Drop(gone)
			case r < 6:
				s.Reset()
				members = map[index.ObjID]*Object{}
			default:
				q := grid()
				if rng.Intn(2) == 0 {
					// An MBR's Hi corner: the coordinate-wise max of two points.
					o := grid()
					for j := range q {
						q[j] = max(q[j], o[j])
					}
				}
				own := int8(rng.Intn(cells+2) - 1) // noCell .. one past the last used cell
				want := false
				for _, o := range members {
					if o.Point.Dominates(q) {
						want = true
						break
					}
				}
				before := c.DominanceChecks
				got := s.Dominator(q, own, c)
				if (got != nil) != want {
					t.Fatalf("d=%d step %d: Dominator(%v, cell %d) = %v, linear scan says %v", d, step, q, own, got, want)
				}
				if got != nil && (members[got.ID] != got || !got.Point.Dominates(q)) {
					t.Fatalf("d=%d step %d: Dominator(%v) returned %v, not a dominating member", d, step, q, got.Point)
				}
				nonEmpty := 0
				for i := range s.cells {
					if len(s.cells[i].objs) > 0 {
						nonEmpty++
					}
				}
				if n := c.DominanceChecks - before; n > int64(len(members)+nonEmpty) {
					t.Fatalf("d=%d: %d checks over %d members in %d cells", d, n, len(members), nonEmpty)
				}
			}
			checkDomSet(t, &s, members, d, step)
		}
	}
}

// checkDomSet checks the dominance set's invariants against its members:
// the member count, and per cell the descending sums, rows that mirror
// their members, and a corner equal to the coordinate-wise max.
func checkDomSet(t *testing.T, s *domSet, members map[index.ObjID]*Object, d, step int) {
	t.Helper()
	if s.n != len(members) {
		t.Fatalf("d=%d step %d: set counts %d members, want %d", d, step, s.n, len(members))
	}
	total := 0
	for ci := range s.cells {
		cl := &s.cells[ci]
		total += len(cl.objs)
		if len(cl.sums) != len(cl.objs) || len(cl.pts) != len(cl.objs)*d {
			t.Fatalf("d=%d step %d: cell %d columns disagree in length", d, step, ci)
		}
		for i := 1; i < len(cl.sums); i++ {
			if cl.sums[i] > cl.sums[i-1] {
				t.Fatalf("d=%d step %d: cell %d sums out of order at %d", d, step, ci, i)
			}
		}
		for i, o := range cl.objs {
			if members[o.ID] != o || int(o.cell) != ci {
				t.Fatalf("d=%d step %d: cell %d row %d holds object %d, not a member of this cell", d, step, ci, i, o.ID)
			}
			if !equalPoints(cl.pts[i*d:(i+1)*d], o.Point) || cl.sums[i] != o.Sum {
				t.Fatalf("d=%d step %d: cell %d row %d does not mirror object %d", d, step, ci, i, o.ID)
			}
		}
		if len(cl.objs) == 0 {
			continue
		}
		corner := append(vec.Point(nil), cl.objs[0].Point...)
		for _, o := range cl.objs {
			for j, v := range o.Point {
				corner[j] = max(corner[j], v)
			}
		}
		if !equalPoints(cl.hi, corner) {
			t.Fatalf("d=%d step %d: cell %d corner %v, want %v", d, step, ci, cl.hi, corner)
		}
	}
	if total != len(members) {
		t.Fatalf("d=%d step %d: cells hold %d members, want %d", d, step, total, len(members))
	}
}

// domGrid are the coordinates of the dominance-set property test: few
// enough values for ties and duplicates, and 1e-17, which vanishes when
// added to a coordinate near 1 — so (1, 1e-17) strictly dominates (1, 0)
// at an equal computed sum.
var domGrid = []float64{0, 1e-17, 0.1, 0.2, 0.3, 0.5, 1}

func equalPoints(a []float64, b vec.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The core maintenance property: repeatedly removing skyline objects (in
// varied patterns) keeps the maintained skyline identical to the brute-force
// skyline of the surviving objects — in every mode.
func TestRemovalSequencesMatchBruteForce(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for _, tc := range []struct{ n, d, grid int }{
				{400, 2, 0}, {400, 3, 0}, {250, 4, 0}, {300, 3, 4},
			} {
				tr, items, c := buildTree(t, rng, tc.n, tc.d, tc.grid)
				m := New(tr, mode, c)
				if err := m.Compute(); err != nil {
					t.Fatal(err)
				}
				excluded := map[index.ObjID]bool{}
				step := 0
				for m.Size() > 0 && step < 60 {
					// Remove 1-3 skyline members per step (multi-pair loops
					// remove several at once).
					k := 1 + rng.Intn(3)
					if k > m.Size() {
						k = m.Size()
					}
					perm := rng.Perm(m.Size())[:k]
					ids := make([]index.ObjID, 0, k)
					for _, idx := range perm {
						ids = append(ids, m.Skyline()[idx].ID)
					}
					for _, id := range ids {
						excluded[id] = true
					}
					added, err := m.Remove(ids)
					if err != nil {
						t.Fatalf("mode %v step %d: %v", mode, step, err)
					}
					want := bruteSkyline(items, excluded)
					if got := skyIDs(m); !equalIDs(got, want) {
						t.Fatalf("mode %v n=%d d=%d step %d: skyline %v, want %v", mode, tc.n, tc.d, step, got, want)
					}
					// Added objects must actually be new members.
					for _, a := range added {
						if excluded[a.ID] {
							t.Fatalf("mode %v: added object %d is excluded", mode, a.ID)
						}
					}
					step++
				}
			}
		})
	}
}

// Newly promoted objects returned by Remove must be exactly the difference
// between the skylines before and after.
func TestRemoveReturnsExactlyTheNewMembers(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			tr, _, c := buildTree(t, rng, 600, 3, 0)
			m := New(tr, mode, c)
			if err := m.Compute(); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40 && m.Size() > 0; step++ {
				before := map[index.ObjID]bool{}
				for _, s := range m.Skyline() {
					before[s.ID] = true
				}
				victim := m.Skyline()[rng.Intn(m.Size())].ID
				added, err := m.Remove([]index.ObjID{victim})
				if err != nil {
					t.Fatal(err)
				}
				addedIDs := map[index.ObjID]bool{}
				for _, a := range added {
					addedIDs[a.ID] = true
				}
				for _, s := range m.Skyline() {
					isNew := !before[s.ID]
					if isNew != addedIDs[s.ID] {
						t.Fatalf("mode %v step %d: object %d new=%v reported=%v", mode, step, s.ID, isNew, addedIDs[s.ID])
					}
				}
				if len(addedIDs) != len(added) {
					t.Fatalf("mode %v: duplicate entries in added", mode)
				}
			}
		})
	}
}

// plist exclusivity: after compute and after every update, each pruned entry
// is owned by exactly one skyline object, and the owner dominates it.
func TestPlistOwnershipInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, _, c := buildTree(t, rng, 800, 3, 0)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		seenPages := map[int32]string{}
		seenObjs := map[index.ObjID]string{}
		for _, s := range m.Skyline() {
			n := 0
			for i := s.head; i != 0; i = m.arena[i].next {
				e := m.arena[i]
				n++
				if !s.Point.Dominates(e.hi) {
					t.Fatalf("%s: owner %d does not dominate plist entry", context, s.ID)
				}
				if e.isObj {
					if prev, dup := seenObjs[e.id]; dup {
						t.Fatalf("%s: object %d in plists of both %s and %d", context, e.id, prev, s.ID)
					}
					seenObjs[e.id] = fmt.Sprint(s.ID)
				} else {
					if prev, dup := seenPages[int32(e.page)]; dup {
						t.Fatalf("%s: page %d in plists of both %s and %d", context, e.page, prev, s.ID)
					}
					seenPages[int32(e.page)] = fmt.Sprint(s.ID)
				}
			}
			if n != s.PlistLen() {
				t.Fatalf("%s: object %d chains %d plist entries, PlistLen %d", context, s.ID, n, s.PlistLen())
			}
		}
	}
	check("after compute")
	for step := 0; step < 30 && m.Size() > 0; step++ {
		victim := m.Skyline()[rng.Intn(m.Size())].ID
		if _, err := m.Remove([]index.ObjID{victim}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after removal %d", step))
	}
}

// Removing every object one by one must drain the skyline to empty exactly
// when all objects are gone, in every mode.
func TestDrainEntireDataset(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			tr, items, c := buildTree(t, rng, 150, 2, 0)
			m := New(tr, mode, c)
			if err := m.Compute(); err != nil {
				t.Fatal(err)
			}
			removedCount := 0
			for m.Size() > 0 {
				victim := m.Skyline()[rng.Intn(m.Size())].ID
				if _, err := m.Remove([]index.ObjID{victim}); err != nil {
					t.Fatal(err)
				}
				removedCount++
				if removedCount > len(items) {
					t.Fatal("removed more objects than exist")
				}
			}
			if removedCount != len(items) {
				t.Fatalf("drained after %d removals, want %d", removedCount, len(items))
			}
		})
	}
}

// The headline claim of § IV-B: plist-based maintenance does far less I/O
// than re-traversal, which does less than recomputation.
func TestMaintenanceIOOrdering(t *testing.T) {
	run := func(mode Mode) int64 {
		rng := rand.New(rand.NewSource(7))
		items := make([]index.Item, 20000)
		for i := range items {
			items[i] = index.Item{ID: index.ObjID(i), Point: vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}}
		}
		c := &stats.Counters{}
		tr, err := paged.New(3, &paged.Options{Counters: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		if err := tr.DropBuffer(); err != nil {
			t.Fatal(err)
		}
		c.Reset()
		m := New(tr, mode, c)
		if err := m.Compute(); err != nil {
			t.Fatal(err)
		}
		computeIO := c.IOAccesses()
		for step := 0; step < 100 && m.Size() > 0; step++ {
			// Pick the minimum-ID member: mode-independent, since all modes
			// maintain the same skyline set.
			victim := m.Skyline()[0].ID
			for _, s := range m.Skyline() {
				if s.ID < victim {
					victim = s.ID
				}
			}
			if _, err := m.Remove([]index.ObjID{victim}); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("mode %-10s: compute io=%d total io=%d", mode, computeIO, c.IOAccesses())
		return c.IOAccesses()
	}
	plist := run(MaintainPlist)
	retraverse := run(MaintainRetraverse)
	recompute := run(MaintainRecompute)
	if !(plist < retraverse && retraverse <= recompute) {
		t.Fatalf("maintenance I/O ordering violated: plist=%d retraverse=%d recompute=%d", plist, retraverse, recompute)
	}
	if plist*5 > recompute {
		t.Fatalf("plist maintenance should be far cheaper: plist=%d recompute=%d", plist, recompute)
	}
}

func TestSkylineSizeCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _, c := buildTree(t, rng, 500, 3, 0)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	if c.SkylineMaxSize < int64(m.Size()) {
		t.Fatalf("SkylineMaxSize %d < current size %d", c.SkylineMaxSize, m.Size())
	}
	if c.SkylineUpdates != 0 {
		t.Fatal("no updates should be counted yet")
	}
	if _, err := m.Remove([]index.ObjID{m.Skyline()[0].ID}); err != nil {
		t.Fatal(err)
	}
	if c.SkylineUpdates != 1 {
		t.Fatalf("SkylineUpdates = %d, want 1", c.SkylineUpdates)
	}
}

func TestModeString(t *testing.T) {
	if MaintainPlist.String() != "plist" || MaintainRetraverse.String() != "retraverse" || MaintainRecompute.String() != "recompute" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

// Skyline membership must imply: no live object dominates a member, and
// every live non-member is dominated by some member (tested via the
// brute-force comparison above); here we additionally verify the "top-1 of
// any monotone function is on the skyline" observation of § III-B.
func TestTop1OfMonotoneFunctionsOnSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, items, c := buildTree(t, rng, 700, 3, 6)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	member := map[index.ObjID]bool{}
	for _, s := range m.Skyline() {
		member[s.ID] = true
	}
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 3)
		for i := range w {
			w[i] = rng.Float64()
		}
		w[rng.Intn(3)] += 0.01
		// Pick the best object under the dominance-consistent order
		// (score, then coordinate sum, then ID).
		best := 0
		bestScore := func(it index.Item) float64 {
			s := 0.0
			for i, x := range it.Point {
				s += w[i] * x
			}
			return s
		}
		for i := 1; i < len(items); i++ {
			si, sb := bestScore(items[i]), bestScore(items[best])
			if si > sb || (si == sb && items[i].Point.Sum() > items[best].Point.Sum()) {
				best = i
			}
		}
		if !member[items[best].ID] {
			t.Fatalf("top-1 object %d of trial %d is not on the skyline", items[best].ID, trial)
		}
	}
}
