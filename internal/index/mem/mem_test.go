package mem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/vec"
)

func randItems(rng *rand.Rand, n, d, grid int) []index.Item {
	items := make([]index.Item, n)
	for i := range items {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(grid)) / float64(grid-1)
		}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	return items
}

func sortedIDs(items []index.Item) []index.ObjID {
	ids := make([]index.ObjID, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func TestBulkLoadAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 64, 500, 3000} {
		for _, d := range []int{2, 3, 5} {
			items := randItems(rng, n, d, 16)
			ix, err := Build(d, items, &Options{PageSize: 512})
			if err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			if ix.Len() != n {
				t.Fatalf("n=%d d=%d: Len=%d", n, d, ix.Len())
			}
			got := sortedIDs(ix.Items())
			want := sortedIDs(items)
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%d: %d items stored", n, d, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d d=%d: item set mismatch at %d", n, d, i)
				}
			}
		}
	}
}

// TestStructuralParityWithPaged asserts that bulk loading yields the same
// tree as the paged backend for the same virtual page size, node for node:
// the same leaf IDs and points in the same order, and the same internal
// MBRs with their children in the same order. This is what makes the two
// backends traverse (and therefore tie-break) identically. Each page size
// and dimension also builds a tree at least three levels deep.
func TestStructuralParityWithPaged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pageSize := range []int{256, 512, 4096} {
		for _, d := range []int{2, 4} {
			deep := 2*index.LeafCapacity(pageSize, d)*index.InternalCapacity(pageSize, d) + 1
			for _, n := range []int{1, 10, 200, 2500, deep} {
				items := randItems(rng, n, d, 32)
				m, err := Build(d, items, &Options{PageSize: pageSize})
				if err != nil {
					t.Fatal(err)
				}
				p, err := paged.Build(d, items, &paged.Options{PageSize: pageSize})
				if err != nil {
					t.Fatal(err)
				}
				levels := sameTree(t, fmt.Sprintf("page=%d d=%d n=%d", pageSize, d, n), m, p)
				if m.NumPages() != p.NumPages() {
					t.Fatalf("page=%d d=%d n=%d: mem has %d nodes, paged has %d pages", pageSize, d, n, m.NumPages(), p.NumPages())
				}
				if n == deep && levels < 3 {
					t.Fatalf("page=%d d=%d n=%d: tree is %d levels deep, want at least 3", pageSize, d, n, levels)
				}
			}
		}
	}
}

// sameTree walks a and b breadth first in step and fails unless every pair
// of nodes matches: leaf IDs and point bits in order, internal MBR bits in
// order, with children paired by position. It returns the depth.
func sameTree(t *testing.T, name string, a, b index.ObjectIndex) int {
	t.Helper()
	same := func(x, y vec.Point) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return len(x) == len(y)
	}
	type pair struct{ a, b index.NodeID }
	level := []pair{{a.RootPage(), b.RootPage()}}
	depth := 0
	for ; len(level) > 0; depth++ {
		var next []pair
		for i, pr := range level {
			na, err := a.ReadNode(pr.a)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := b.ReadNode(pr.b)
			if err != nil {
				t.Fatal(err)
			}
			if na.Leaf() != nb.Leaf() || na.Len() != nb.Len() {
				t.Fatalf("%s: level %d node %d: leaf=%v/%v len=%d/%d", name, depth, i, na.Leaf(), nb.Leaf(), na.Len(), nb.Len())
			}
			for e := 0; e < na.Len(); e++ {
				if na.Leaf() {
					oa, ob := na.Object(e), nb.Object(e)
					if oa.ID != ob.ID || !same(oa.Point, ob.Point) {
						t.Fatalf("%s: level %d node %d entry %d: object %d %v / %d %v", name, depth, i, e, oa.ID, oa.Point, ob.ID, ob.Point)
					}
					continue
				}
				ra, rb := na.Rect(e), nb.Rect(e)
				if !same(ra.Lo, rb.Lo) || !same(ra.Hi, rb.Hi) {
					t.Fatalf("%s: level %d node %d entry %d: MBR %v / %v", name, depth, i, e, ra, rb)
				}
				next = append(next, pair{na.ChildPage(e), nb.ChildPage(e)})
			}
		}
		level = next
	}
	return depth
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 700, 3, 8)
	ix, err := Build(3, items, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	order := rng.Perm(len(items))
	for k, oi := range order {
		if err := ix.Delete(items[oi].ID, items[oi].Point); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		if ix.Len() != len(items)-k-1 {
			t.Fatalf("after %d deletes Len=%d", k+1, ix.Len())
		}
		if k%37 == 0 {
			if err := ix.Validate(); err != nil {
				t.Fatalf("after %d deletes: %v", k+1, err)
			}
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.RootPage() != index.InvalidNode {
		t.Fatalf("root %d after deleting everything", ix.RootPage())
	}
	if err := ix.Delete(items[0].ID, items[0].Point); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("delete from empty index: %v", err)
	}
}

func TestDeleteNotFound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 50, 2, 8)
	ix, err := Build(2, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(999, vec.Point{0.5, 0.5}); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("absent ID: %v", err)
	}
	if err := ix.Delete(items[0].ID, vec.Point{-1, -1}); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("wrong point: %v", err)
	}
	if ix.Len() != 50 {
		t.Fatalf("Len=%d after failed deletes", ix.Len())
	}
}

func TestReadNodeErrors(t *testing.T) {
	ix, err := Build(2, randItems(rand.New(rand.NewSource(5)), 10, 2, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ReadNode(index.InvalidNode); err == nil {
		t.Fatal("ReadNode(InvalidNode) succeeded")
	}
	if _, err := ix.ReadNode(9999); err == nil {
		t.Fatal("ReadNode(out of range) succeeded")
	}
}
