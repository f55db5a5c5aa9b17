package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"prefmatch/internal/vec"
)

// The reference packers below are the comparator-based STR recursions the
// flat-record packer replaced: sort.Slice over items (or positions) by
// (coordinate, ID). The tests require the packer to reproduce their groups
// entry for entry.

func refSTRItems(items []Item, d, dim, capacity int) [][]Item {
	if len(items) <= capacity {
		return [][]Item{items}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Point[d] != items[j].Point[d] {
			return items[i].Point[d] < items[j].Point[d]
		}
		return items[i].ID < items[j].ID
	})
	if d == dim-1 {
		var out [][]Item
		start := 0
		for _, sz := range refBalancedSizes(len(items), capacity) {
			out = append(out, items[start:start+sz])
			start += sz
		}
		return out
	}
	pages := ceilDiv(len(items), capacity)
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d))))
	var out [][]Item
	start := 0
	for _, sz := range refEvenSizes(len(items), slabs) {
		out = append(out, refSTRItems(items[start:start+sz], d+1, dim, capacity)...)
		start += sz
	}
	return out
}

func refSTRGroups(n int, center func(i, d int) float64, id func(i int) int32, dim, capacity int) [][]int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	var rec func(idxs []int, d int) [][]int
	rec = func(idxs []int, d int) [][]int {
		if len(idxs) <= capacity {
			return [][]int{idxs}
		}
		sort.Slice(idxs, func(a, b int) bool {
			ca, cb := center(idxs[a], d), center(idxs[b], d)
			if ca != cb {
				return ca < cb
			}
			return id(idxs[a]) < id(idxs[b])
		})
		if d == dim-1 {
			var out [][]int
			start := 0
			for _, sz := range refBalancedSizes(len(idxs), capacity) {
				out = append(out, idxs[start:start+sz])
				start += sz
			}
			return out
		}
		pages := ceilDiv(len(idxs), capacity)
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d))))
		var out [][]int
		start := 0
		for _, sz := range refEvenSizes(len(idxs), slabs) {
			out = append(out, rec(idxs[start:start+sz], d+1)...)
			start += sz
		}
		return out
	}
	return rec(idxs, 0)
}

func refSpatialRec(items []Item, n, d int, out *[][]Item) {
	if n <= 1 {
		*out = append(*out, items)
		return
	}
	if len(items) == 0 {
		for i := 0; i < n; i++ {
			*out = append(*out, nil)
		}
		return
	}
	dim := len(items[0].Point)
	axis := d % dim
	sort.Slice(items, func(i, j int) bool {
		if items[i].Point[axis] != items[j].Point[axis] {
			return items[i].Point[axis] < items[j].Point[axis]
		}
		return items[i].ID < items[j].ID
	})
	slabs := n
	if remaining := dim - d; remaining > 1 {
		slabs = int(math.Ceil(math.Pow(float64(n), 1/float64(remaining))))
		if slabs > n {
			slabs = n
		}
		if slabs < 1 {
			slabs = 1
		}
	}
	start, cum := 0, 0
	for _, sc := range refEvenSizes(n, slabs) {
		cum += sc
		end := len(items) * cum / n
		refSpatialRec(items[start:end], sc, d+1, out)
		start = end
	}
}

func refBalancedSizes(n, capacity int) []int {
	return refEvenSizes(n, ceilDiv(n, capacity))
}

func refEvenSizes(n, k int) []int {
	if k > n {
		k = n
	}
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = n / k
		if i < n%k {
			sizes[i]++
		}
	}
	return sizes
}

// randItems draws n items of dimension dim. grid > 0 puts every coordinate
// on grid+1 levels so that many keys tie; column 0 then mixes −0 and +0.
// ids orders the IDs: "asc", "desc" or "shuffled".
func randItems(rng *rand.Rand, n, dim, grid int, ids string) []Item {
	perm := rng.Perm(n)
	items := make([]Item, n)
	for i := range items {
		p := make(vec.Point, dim)
		for j := range p {
			if grid > 0 {
				p[j] = float64(rng.Intn(grid+1)) / float64(grid)
			} else {
				p[j] = rng.Float64()
			}
		}
		if grid > 0 && p[0] == 0 && rng.Intn(2) == 0 {
			p[0] = math.Copysign(0, -1)
		}
		id := i
		switch ids {
		case "desc":
			id = n - 1 - i
		case "shuffled":
			id = perm[i]
		}
		items[i] = Item{ID: ObjID(id), Point: p}
	}
	return items
}

// groupsOf cuts perm into groups of input positions by sizes.
func groupsOf(t *testing.T, perm []int32, sizes []int) [][]int {
	t.Helper()
	var out [][]int
	off := 0
	for _, sz := range sizes {
		g := make([]int, sz)
		for i := range g {
			g[i] = int(perm[off+i])
		}
		out = append(out, g)
		off += sz
	}
	if off != len(perm) {
		t.Fatalf("group sizes cover %d of %d entries", off, len(perm))
	}
	return out
}

// sameItemGroups fails unless want and the packer's groups hold the same
// IDs in the same order, group for group.
func sameItemGroups(t *testing.T, items []Item, want [][]Item, got [][]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d groups, reference has %d", len(got), len(want))
	}
	for g := range want {
		if len(want[g]) != len(got[g]) {
			t.Fatalf("group %d holds %d entries, reference %d", g, len(got[g]), len(want[g]))
		}
		for i, it := range want[g] {
			if id := items[got[g][i]].ID; id != it.ID {
				t.Fatalf("group %d entry %d is ID %d, reference %d", g, i, id, it.ID)
			}
		}
	}
}

type strCase struct {
	dim, n, capacity, grid int
	ids                    string
}

func (c strCase) String() string {
	return fmt.Sprintf("d=%d/n=%d/cap=%d/grid=%d/%s", c.dim, c.n, c.capacity, c.grid, c.ids)
}

func strCases() []strCase {
	var cases []strCase
	for dim := 1; dim <= 5; dim++ {
		for _, capacity := range []int{2, 3, 113} {
			for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 2*capacity + 1, 5000} {
				for _, grid := range []int{0, 3} {
					for _, ids := range []string{"asc", "desc", "shuffled"} {
						cases = append(cases, strCase{dim, n, capacity, grid, ids})
					}
				}
			}
		}
	}
	return cases
}

func TestSTRItemsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range strCases() {
		items := randItems(rng, c.n, c.dim, c.grid, c.ids)
		want := refSTRItems(append([]Item(nil), items...), 0, c.dim, c.capacity)
		perm, sizes := STRItems(items, c.dim, c.capacity)
		t.Run(c.String(), func(t *testing.T) {
			sameItemGroups(t, items, want, groupsOf(t, perm, sizes))
		})
	}
}

func TestSTRGroupsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range strCases() {
		// Rectangles on the grid (or continuous), so centres tie as often
		// as the leaf keys do.
		lo := make([]float64, c.n*c.dim)
		hi := make([]float64, c.n*c.dim)
		for i, it := range randItems(rng, c.n, c.dim, c.grid, "asc") {
			for j, v := range it.Point {
				w := float64(rng.Intn(3)) / 4
				lo[i*c.dim+j], hi[i*c.dim+j] = v-w, v+w
			}
		}
		shuffled := rng.Perm(c.n)
		ids := make([]int32, c.n)
		for i := range ids {
			switch c.ids {
			case "asc":
				ids[i] = int32(i)
			case "desc":
				ids[i] = int32(c.n - 1 - i)
			default:
				ids[i] = int32(shuffled[i])
			}
		}
		want := refSTRGroups(c.n, func(i, d int) float64 {
			return (lo[i*c.dim+d] + hi[i*c.dim+d]) / 2
		}, func(i int) int32 { return ids[i] }, c.dim, c.capacity)
		perm, sizes := STRGroups(lo, hi, ids, c.dim, c.capacity)
		t.Run(c.String(), func(t *testing.T) {
			got := groupsOf(t, perm, sizes)
			if len(want) != len(got) {
				t.Fatalf("%d groups, reference has %d", len(got), len(want))
			}
			for g := range want {
				if fmt.Sprint(want[g]) != fmt.Sprint(got[g]) {
					t.Fatalf("group %d is %v, reference %v", g, got[g], want[g])
				}
			}
		})
	}
}

func TestSTRTilesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for dim := 1; dim <= 5; dim++ {
		for _, n := range []int{0, 1, 2, 3, 6, 7, 8, 100, 5000} {
			for _, grid := range []int{0, 3} {
				for _, ids := range []string{"asc", "desc", "shuffled"} {
					items := randItems(rng, n, dim, grid, ids)
					for _, shards := range []int{1, 2, 3, 7} {
						var want [][]Item
						refSpatialRec(append([]Item(nil), items...), shards, 0, &want)
						perm, sizes := STRTiles(items, shards)
						t.Run(fmt.Sprintf("d=%d/n=%d/grid=%d/%s/shards=%d", dim, n, grid, ids, shards), func(t *testing.T) {
							if len(sizes) != shards {
								t.Fatalf("%d tiles for %d shards", len(sizes), shards)
							}
							sameItemGroups(t, items, want, groupsOf(t, perm, sizes))
						})
					}
				}
			}
		}
	}
}

// TestSTRSignedZeroTies pins the key comparison: −0 and +0 are one key, so
// the ID orders them, whatever the input order of the signs.
func TestSTRSignedZeroTies(t *testing.T) {
	negZero := math.Copysign(0, -1)
	items := []Item{
		{ID: 3, Point: vec.Point{negZero}},
		{ID: 1, Point: vec.Point{negZero}},
		{ID: 2, Point: vec.Point{0}},
		{ID: 0, Point: vec.Point{0}},
		{ID: 4, Point: vec.Point{-1}},
	}
	perm, sizes := STRItems(items, 1, 2)
	var got []ObjID
	for _, p := range perm {
		got = append(got, items[p].ID)
	}
	if fmt.Sprint(got) != "[4 0 1 2 3]" || fmt.Sprint(sizes) != "[2 2 1]" {
		t.Fatalf("packed IDs %v in groups %v, want [4 0 1 2 3] in [2 2 1]", got, sizes)
	}
}

// TestSTRDuplicateIDsBreakTiesByPosition: with equal keys and IDs the input
// position decides, so the packing is deterministic even then.
func TestSTRDuplicateIDsBreakTiesByPosition(t *testing.T) {
	items := make([]Item, 9)
	for i := range items {
		items[i] = Item{ID: ObjID(i % 2), Point: vec.Point{float64(i % 3), 0}}
	}
	perm, _ := STRItems(items, 2, 2)
	again, _ := STRItems(items, 2, 2)
	if fmt.Sprint(perm) != fmt.Sprint(again) {
		t.Fatalf("packings differ: %v and %v", perm, again)
	}
	// Sorted by (x, ID, position): x=0 holds positions 0, 3, 6 with IDs
	// 0, 1, 0, so 0 and 6 (ID 0) precede 3.
	if perm[0] != 0 || perm[1] != 6 || perm[2] != 3 {
		t.Fatalf("first slab starts %v, want [0 6 3 ...]", perm[:3])
	}
}

var strSink []int32

// BenchmarkSTR packs 1M uniform 4-d items into 4 KiB leaves.
func BenchmarkSTR(b *testing.B) {
	const n, dim = 1_000_000, 4
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, n, dim, 0, "asc")
	capacity := LeafCapacity(4096, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strSink, _ = STRItems(items, dim, capacity)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/n, "ns/item")
}
