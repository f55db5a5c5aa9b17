package sharded

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"prefmatch/internal/core"
	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
)

func sortedIDs(items []index.Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = int(it.ID)
	}
	sort.Ints(ids)
	return ids
}

// TestPartitioners checks the Partitioner contract for every implementation:
// exactly n groups, no item dropped or duplicated, and deterministic output.
func TestPartitioners(t *testing.T) {
	items := dataset.Independent(500, 3, 11)
	want := sortedIDs(items)
	for _, p := range []Partitioner{RoundRobin{}, Hash{}, Spatial{}} {
		for _, n := range []int{1, 2, 3, 7, 64, 501} {
			scratch := append([]index.Item(nil), items...)
			groups := p.Partition(scratch, n)
			if len(groups) != n {
				t.Fatalf("%s: %d groups for n=%d", p.Name(), len(groups), n)
			}
			var union []index.Item
			for _, g := range groups {
				union = append(union, g...)
			}
			if got := sortedIDs(union); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d: partition does not preserve the item set", p.Name(), n)
			}
			again := p.Partition(append([]index.Item(nil), items...), n)
			for i := range groups {
				if !reflect.DeepEqual(sortedIDs(groups[i]), sortedIDs(again[i])) {
					t.Fatalf("%s n=%d: non-deterministic partition (group %d)", p.Name(), n, i)
				}
			}
		}
	}
}

// TestPartitionBalance checks that the position- and hash-based partitioners
// spread items evenly (round-robin exactly, hash within a loose bound), and
// that spatial shard sizes differ by at most one (proportional tiling).
func TestPartitionBalance(t *testing.T) {
	items := dataset.Independent(1000, 2, 12)
	for _, n := range []int{2, 3, 7} {
		rr := RoundRobin{}.Partition(append([]index.Item(nil), items...), n)
		for _, g := range rr {
			if len(g) < len(items)/n || len(g) > len(items)/n+1 {
				t.Fatalf("rr n=%d: group size %d", n, len(g))
			}
		}
		sp := Spatial{}.Partition(append([]index.Item(nil), items...), n)
		for _, g := range sp {
			if len(g) < len(items)/n-1 || len(g) > len(items)/n+2 {
				t.Fatalf("spatial n=%d: group size %d far from mean %d", n, len(g), len(items)/n)
			}
		}
		hash := Hash{}.Partition(append([]index.Item(nil), items...), n)
		for _, g := range hash {
			if len(g) < len(items)/n/2 || len(g) > 2*len(items)/n {
				t.Fatalf("hash n=%d: group size %d implausibly skewed (mean %d)", n, len(g), len(items)/n)
			}
		}
	}
}

// collectItems walks the composite through its public traversal surface.
func collectItems(t *testing.T, ix index.ObjectIndex) []index.Item {
	t.Helper()
	var out []index.Item
	root := ix.RootPage()
	if root == index.InvalidNode {
		return out
	}
	var walk func(id index.NodeID)
	walk = func(id index.NodeID) {
		n, err := ix.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n.Len(); i++ {
			if n.Leaf() {
				out = append(out, n.Object(i))
			} else {
				if !n.Rect(i).Valid() {
					t.Fatalf("invalid MBR at node %d entry %d", id, i)
				}
				walk(n.ChildPage(i))
			}
		}
	}
	walk(root)
	return out
}

func TestCompositeTraversal(t *testing.T) {
	items := dataset.Independent(800, 3, 13)
	for _, p := range []Partitioner{Spatial{}, Hash{}, RoundRobin{}} {
		for _, n := range []int{1, 2, 3, 7} {
			ix, err := Build(3, items, &Options{Shards: n, Partitioner: p})
			if err != nil {
				t.Fatal(err)
			}
			if ix.Len() != len(items) || ix.Dim() != 3 || ix.NumShards() != n {
				t.Fatalf("%s/%d: shape len=%d dim=%d shards=%d", p.Name(), n, ix.Len(), ix.Dim(), ix.NumShards())
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", p.Name(), n, err)
			}
			got := collectItems(t, ix)
			if !reflect.DeepEqual(sortedIDs(got), sortedIDs(items)) {
				t.Fatalf("%s/%d: traversal does not reach every item", p.Name(), n)
			}
			sizes := ix.ShardSizes()
			total := 0
			for _, s := range sizes {
				total += s
			}
			if total != len(items) {
				t.Fatalf("%s/%d: shard sizes %v sum to %d", p.Name(), n, sizes, total)
			}
		}
	}
}

func TestCompositeDelete(t *testing.T) {
	items := dataset.Independent(300, 2, 14)
	ix, err := Build(2, items, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Absent object.
	if err := ix.Delete(99999, items[0].Point); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("absent delete: %v", err)
	}
	// Present ID with the wrong point is not found either (and stays routed).
	wrong := append([]float64(nil), items[0].Point...)
	wrong[0] += 0.5
	if err := ix.Delete(items[0].ID, wrong); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("wrong-point delete: %v", err)
	}
	// Delete everything, validating as the entries tighten and shards empty.
	for i, it := range items {
		if err := ix.Delete(it.ID, it.Point); err != nil {
			t.Fatalf("delete %d: %v", it.ID, err)
		}
		if ix.Len() != len(items)-i-1 {
			t.Fatalf("Len after %d deletes: %d", i+1, ix.Len())
		}
		if i%37 == 0 {
			if err := ix.Validate(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
		// Double delete must fail.
		if err := ix.Delete(it.ID, it.Point); !errors.Is(err, index.ErrNotFound) {
			t.Fatalf("double delete %d: %v", it.ID, err)
		}
	}
	if ix.RootPage() != index.InvalidNode {
		t.Fatal("empty composite still has a root")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeCounters(t *testing.T) {
	items := dataset.Independent(200, 2, 15)
	c := &stats.Counters{}
	ix, err := Build(2, items, &Options{Shards: 2, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Counters() != c {
		t.Fatal("composite does not report the configured sink")
	}
	// Redirect and confirm shard work (a delete) lands in the new sink.
	c2 := &stats.Counters{}
	ix.SetCounters(c2)
	if err := ix.Delete(items[0].ID, items[0].Point); err != nil {
		t.Fatal(err)
	}
	if c2.TreeDeletes == 0 {
		t.Fatal("shard delete not charged to the redirected sink")
	}
	if c.TreeDeletes != 0 {
		t.Fatal("shard delete leaked into the old sink")
	}
}

// TestMatchWaveEquivalence is the cross-shard correctness bar of matching:
// every algorithm over a composite of {1, 2, 3, 7} shards, under every
// partitioner, with and without capacities, emits the pair stream
// (assignments, order, scores) of the same algorithm over one combined
// index. Brute Force and Chain consume the composite, so each run builds its
// own; SB runs over a composite snapshot, as a sharded server's Match does.
func TestMatchWaveEquivalence(t *testing.T) {
	const (
		d    = 3
		nFns = 40
	)
	items := dataset.Clustered(600, d, 6, 41)
	caps := map[index.ObjID]int{}
	for i, it := range items {
		if i%10 == 0 {
			caps[it.ID] = 3
		}
	}
	match := func(tree index.ObjectIndex, alg core.Algorithm, c map[index.ObjID]int) []core.Pair {
		t.Helper()
		pairs, err := core.Match(tree, dataset.Functions(nFns, d, 42), &core.Options{
			Algorithm:  alg,
			Capacities: c,
			Counters:   &stats.Counters{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	for _, c := range []map[index.ObjID]int{nil, caps} {
		for _, alg := range []core.Algorithm{core.AlgSB, core.AlgBruteForce, core.AlgChain, core.AlgBruteForceIncremental} {
			single, err := mem.Build(d, items, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := match(single, alg, c)
			if len(want) == 0 {
				t.Fatalf("%v caps=%v: empty reference matching", alg, c != nil)
			}
			for _, p := range []Partitioner{Spatial{}, Hash{}, RoundRobin{}} {
				for _, n := range []int{1, 2, 3, 7} {
					ix, err := Build(d, items, &Options{Shards: n, Partitioner: p})
					if err != nil {
						t.Fatal(err)
					}
					var tree index.ObjectIndex = ix
					if alg == core.AlgSB {
						tree = ix.Snapshot()
					}
					if got := match(tree, alg, c); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v caps=%v %s/%d: pairs differ from the single index", alg, c != nil, p.Name(), n)
					}
				}
			}
		}
	}
}

// TestMatchWaveLeavesShardsIntact: the algorithms that only read their tree
// (SB and Brute Force Incremental) serve wave after wave from snapshots of
// one composite, repeat the identical answer and counters, and leave every
// object in place. Brute Force and Chain delete what they match, so over a
// snapshot they fail with index.ErrReadOnly instead of consuming it.
func TestMatchWaveLeavesShardsIntact(t *testing.T) {
	const d = 2
	items := dataset.Independent(300, d, 43)
	ix, err := Build(d, items, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	fns := dataset.Functions(25, d, 44)
	wave := func(alg core.Algorithm) ([]core.Pair, *stats.Counters, error) {
		c := &stats.Counters{}
		pairs, err := core.Match(ix.Snapshot(), fns, &core.Options{Algorithm: alg, Counters: c})
		return pairs, c, err
	}
	for _, alg := range []core.Algorithm{core.AlgSB, core.AlgBruteForceIncremental} {
		first, c1, err := wave(alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(first) != len(fns) {
			t.Fatalf("%v: %d pairs for %d functions", alg, len(first), len(fns))
		}
		if ix.Len() != len(items) {
			t.Fatalf("%v: wave consumed the composite (%d of %d objects left)", alg, ix.Len(), len(items))
		}
		second, c2, err := wave(alg)
		if err != nil {
			t.Fatalf("%v second wave: %v", alg, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%v: wave is not repeatable", alg)
		}
		if *c1 != *c2 {
			t.Fatalf("%v: counters differ between waves:\nfirst:  %v\nsecond: %v", alg, c1, c2)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
	for _, alg := range []core.Algorithm{core.AlgBruteForce, core.AlgChain} {
		if _, _, err := wave(alg); !errors.Is(err, index.ErrReadOnly) {
			t.Fatalf("%v over a snapshot: err = %v, want index.ErrReadOnly", alg, err)
		}
		if ix.Len() != len(items) {
			t.Fatalf("%v: failed wave consumed the composite (%d of %d objects left)", alg, ix.Len(), len(items))
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeSnapshot(t *testing.T) {
	items := dataset.Independent(400, 3, 16)
	ix, err := Build(3, items, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.CanSnapshot() {
		t.Fatal("memory shards must snapshot")
	}
	snap := ix.Snapshot()
	if snap.Len() != ix.Len() || snap.Dim() != ix.Dim() {
		t.Fatalf("snapshot shape: len=%d dim=%d", snap.Len(), snap.Dim())
	}
	if err := snap.Delete(items[0].ID, items[0].Point); !errors.Is(err, index.ErrReadOnly) {
		t.Fatalf("snapshot delete: %v", err)
	}
	if snap.Counters() == ix.Counters() {
		t.Fatal("snapshot shares the parent's counter sink")
	}
	got := collectItems(t, snap)
	if !reflect.DeepEqual(sortedIDs(got), sortedIDs(items)) {
		t.Fatal("snapshot traversal does not reach every item")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}

	// Paged shards cannot snapshot; the composite must say so.
	pix, err := Build(3, items, &Options{Shards: 2, BuildShard: func(dim int, g []index.Item) (index.ObjectIndex, error) {
		return paged.Build(dim, g, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pix.CanSnapshot() {
		t.Fatal("paged shards reported as snapshot-capable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot on paged shards did not panic")
		}
	}()
	pix.Snapshot()
}

// walkTopK answers fns, each wanting its k best, with one batch walk over
// tree — the serving path's ranked search over a composite snapshot —
// charging c (nil: the tree's sink).
func walkTopK(t *testing.T, tree index.ObjectIndex, fns []prefs.Preference, k int, c *stats.Counters) [][]topk.Result {
	t.Helper()
	ks := make([]int, len(fns))
	for i := range ks {
		ks[i] = k
	}
	b := topk.AcquireBatchSearcher(tree, fns, ks, c)
	defer b.Release()
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][]topk.Result, len(fns))
	for f := range fns {
		out[f] = b.AppendResults(f, nil)
	}
	return out
}

// drainTopK is the reference answer: a resumable Searcher over tree drained
// k deep — the other ranked-search engine.
func drainTopK(t *testing.T, tree index.ObjectIndex, f prefs.Preference, k int) []topk.Result {
	t.Helper()
	s := topk.NewSearcher()
	s.Reset(tree, f, &stats.Counters{})
	var out []topk.Result
	for len(out) < k {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// TestSearchTopKEquivalence: a batch walk of one over a composite snapshot
// must be bit-identical to a drained Searcher over one combined memory
// index, for every partitioner, shard count and k.
func TestSearchTopKEquivalence(t *testing.T) {
	const d = 3
	items := dataset.Clustered(900, d, 6, 17)
	fns := dataset.Functions(25, d, 18)
	single, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{Spatial{}, Hash{}} {
		for _, n := range []int{1, 2, 3, 7} {
			ix, err := Build(d, items, &Options{Shards: n, Partitioner: p})
			if err != nil {
				t.Fatal(err)
			}
			snap := ix.Snapshot()
			for _, k := range []int{1, 5, 950} {
				for _, f := range fns {
					want := drainTopK(t, single, f, k)
					got := walkTopK(t, snap, []prefs.Preference{f}, k, nil)[0]
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d k=%d fn=%d: composite walk differs from single index\ngot  %v\nwant %v",
							p.Name(), n, k, f.ID, got, want)
					}
				}
			}
		}
	}
}

// TestSearchTopKPruning: on spatially tiled shards a small k must skip whole
// shards, and settling the snapshot's reads must count every listed shard
// once per walk — searched or pruned — with the pruned ones also landing in
// the caller's sink.
func TestSearchTopKPruning(t *testing.T) {
	const (
		d      = 2
		shards = 8
	)
	items := dataset.Clustered(2000, d, 8, 19)
	ix, err := Build(d, items, &Options{Shards: shards, Partitioner: Spatial{}})
	if err != nil {
		t.Fatal(err)
	}
	snap := ix.Snapshot().(*snapshot)
	fns := dataset.Functions(10, d, 20)
	c := &stats.Counters{}
	for _, f := range fns {
		walkTopK(t, snap, []prefs.Preference{f}, 1, c)
		snap.SettleShardReads(c)
	}
	if c.ShardsPruned == 0 {
		t.Fatal("spatial shards with k=1 never pruned a shard")
	}
	var searched, pruned int64
	for i := 0; i < shards; i++ {
		l := ix.ShardLoadAt(i)
		searched += l.Queries
		pruned += l.Pruned
	}
	if searched+pruned != int64(shards*len(fns)) || pruned != c.ShardsPruned {
		t.Fatalf("settled %d searched + %d pruned (sink %d) over %d walks of %d shards",
			searched, pruned, c.ShardsPruned, len(fns), shards)
	}
}

// TestSearchTopKEdgeCases: k = 0 reads nothing and settles nothing; the
// composite over paged shards, which cannot snapshot, still walks directly.
func TestSearchTopKEdgeCases(t *testing.T) {
	items := dataset.Independent(100, 2, 21)
	ix, err := Build(2, items, &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := dataset.Functions(1, 2, 22)[0]
	snap := ix.Snapshot().(*snapshot)
	c := &stats.Counters{}
	if out := walkTopK(t, snap, []prefs.Preference{f}, 0, c); len(out[0]) != 0 {
		t.Fatalf("k=0 returned %v", out[0])
	}
	snap.SettleShardReads(c)
	if c.NodesVisited != 0 || c.ShardsPruned != 0 || ix.QuerySkew() != 0 {
		t.Fatalf("k=0 read or settled work: %v, skew %v", c.String(), ix.QuerySkew())
	}
	pix, err := Build(2, items, &Options{Shards: 2, BuildShard: func(dim int, g []index.Item) (index.ObjectIndex, error) {
		return paged.Build(dim, g, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	single, err := mem.Build(2, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := walkTopK(t, pix, []prefs.Preference{f}, 3, nil)[0], drainTopK(t, single, f, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("walk over paged shards: got %v, want %v", got, want)
	}
}

func TestBuildValidation(t *testing.T) {
	items := dataset.Independent(50, 2, 23)
	if _, err := Build(2, items, &Options{Shards: 0}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := Build(2, items, &Options{Shards: MaxShards + 1}); err == nil {
		t.Fatal("too many shards accepted")
	}
	if _, err := Build(0, items, &Options{Shards: 2}); err == nil {
		t.Fatal("dimension 0 accepted")
	}
	bad := append([]index.Item(nil), items...)
	bad[3].Point = bad[3].Point[:1]
	if _, err := Build(2, bad, &Options{Shards: 2}); err == nil {
		t.Fatal("ragged item accepted")
	}
	// More shards than items: empty shards are fine.
	ix, err := Build(2, items[:3], &Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty composite.
	empty, err := Build(2, nil, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if empty.RootPage() != index.InvalidNode || empty.Len() != 0 {
		t.Fatal("empty composite has a root")
	}
}

// TestShardNodesForwardFlatPayloads pins the fast-path plumbing: nodes read
// through the composite over memory shards must still satisfy the columnar
// interfaces (index.FlatLeaf / index.FlatInternal), so the engine's
// devirtualized scoring survives the shard wrapper. Method promotion through
// an embedded interface would silently drop them — this test is what catches
// that regression.
func TestShardNodesForwardFlatPayloads(t *testing.T) {
	items := dataset.Independent(3000, 3, 17)
	ix, err := Build(3, items, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	var walk func(id index.NodeID)
	walk = func(id index.NodeID) {
		n, err := ix.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == ix.RootPage() {
			// The synthetic root is a routing table, not a shard node.
			for i := 0; i < n.Len(); i++ {
				walk(n.ChildPage(i))
			}
			return
		}
		if n.Leaf() {
			fl, ok := n.(index.FlatLeaf)
			if !ok {
				t.Fatalf("leaf node %d read through the composite lost index.FlatLeaf", id)
			}
			ids, pts := fl.FlatItems()
			if len(ids) != n.Len() || len(pts) != n.Len()*3 {
				t.Fatalf("node %d: flat payload %d ids / %d coords for %d entries", id, len(ids), len(pts), n.Len())
			}
			for i := range ids {
				obj := n.Object(i)
				if obj.ID != ids[i] || !obj.Point.Equal(pts[i*3:(i+1)*3]) {
					t.Fatalf("node %d entry %d: flat payload disagrees with Object", id, i)
				}
			}
			seen += len(ids)
			return
		}
		fi, ok := n.(index.FlatInternal)
		if !ok {
			t.Fatalf("internal node %d read through the composite lost index.FlatInternal", id)
		}
		lo, hi := fi.FlatRects()
		for i := 0; i < n.Len(); i++ {
			r := n.Rect(i)
			if !r.Lo.Equal(lo[i*3:(i+1)*3]) || !r.Hi.Equal(hi[i*3:(i+1)*3]) {
				t.Fatalf("node %d entry %d: flat MBR disagrees with Rect", id, i)
			}
			walk(n.ChildPage(i))
		}
	}
	walk(ix.RootPage())
	if seen != len(items) {
		t.Fatalf("walk saw %d items, want %d", seen, len(items))
	}
}

// TestSearchTopKBatchEquivalence: one batch walk over a composite snapshot
// must return, for every function in the batch, exactly what a drained
// Searcher over one combined memory index returns — same objects, same
// order — across partitioners, shard counts, batch sizes and k.
func TestSearchTopKBatchEquivalence(t *testing.T) {
	const d = 3
	items := dataset.Clustered(900, d, 6, 17)
	fns := dataset.Functions(16, d, 18)
	single, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefsOf := func(q int) []prefs.Preference {
		ps := make([]prefs.Preference, q)
		for i := range ps {
			ps[i] = fns[i%len(fns)]
		}
		return ps
	}
	for _, p := range []Partitioner{Spatial{}, Hash{}} {
		for _, n := range []int{1, 3, 7} {
			ix, err := Build(d, items, &Options{Shards: n, Partitioner: p})
			if err != nil {
				t.Fatal(err)
			}
			snap := ix.Snapshot()
			for _, q := range []int{1, 3, 16} {
				for _, k := range []int{1, 5, 950} {
					batch := prefsOf(q)
					got := walkTopK(t, snap, batch, k, &stats.Counters{})
					for f := range batch {
						if want := drainTopK(t, single, batch[f], k); !reflect.DeepEqual(got[f], want) {
							t.Fatalf("%s/%d q=%d k=%d fn#%d: batch walk differs\ngot  %v\nwant %v",
								p.Name(), n, q, k, f, got[f], want)
						}
					}
				}
			}
		}
	}
}

// TestSearchTopKBatchEdgeCases: an empty batch reads nothing, and a batch
// over a composite whose shards are all empty answers every function with
// nothing.
func TestSearchTopKBatchEdgeCases(t *testing.T) {
	items := dataset.Independent(100, 2, 21)
	ix, err := Build(2, items, &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := &stats.Counters{}
	if out := walkTopK(t, ix.Snapshot(), nil, 3, c); len(out) != 0 || c.NodesVisited != 0 {
		t.Fatalf("empty batch: %v, %v", out, c.String())
	}
	empty, err := Build(2, nil, &Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	fs := dataset.Functions(2, 2, 22)
	for f, rs := range walkTopK(t, empty.Snapshot(), []prefs.Preference{fs[0], fs[1]}, 3, nil) {
		if len(rs) != 0 {
			t.Fatalf("fn %d over an empty composite returned %v", f, rs)
		}
	}
}
