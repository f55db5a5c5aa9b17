package sharded

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// dynamicShards builds dynamic-backend shards with the given merge
// threshold (negative disables auto-merge).
func dynamicShards(threshold int) BuildShardFunc {
	return func(dim int, items []index.Item) (index.ObjectIndex, error) {
		return dynamic.Build(dim, items, &dynamic.Options{MergeThreshold: threshold})
	}
}

func buildMutable(t *testing.T, dim int, items []index.Item, shards int, p Partitioner, threshold int) *Index {
	t.Helper()
	ix, err := Build(dim, items, &Options{
		Shards:      shards,
		Partitioner: p,
		BuildShard:  dynamicShards(threshold),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.CanMutate() || !ix.CanSnapshot() {
		t.Fatal("dynamic shards must make the composite mutable and snapshottable")
	}
	return ix
}

// TestMutableRejectsOverMem pins the read-only error contract: a composite
// over non-mutable shards rejects live writes with ErrReadOnly.
func TestMutableRejectsOverMem(t *testing.T) {
	items := dataset.Independent(100, 2, 41)
	ix, err := Build(2, items, &Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.CanMutate() {
		t.Fatal("mem shards reported mutable")
	}
	if err := ix.Insert(10_000, vec.Point{0.5, 0.5}); !errors.Is(err, index.ErrReadOnly) {
		t.Fatalf("insert over mem shards: %v", err)
	}
	if err := ix.Update(items[0].ID, vec.Point{0.5, 0.5}); !errors.Is(err, index.ErrReadOnly) {
		t.Fatalf("update over mem shards: %v", err)
	}
}

// TestLiveInsertGrowsRoot inserts into an initially empty composite: every
// partitioner must route deterministically, the synthetic root must grow
// entries as shards go non-empty, and the result must equal a bulk build.
func TestLiveInsertGrowsRoot(t *testing.T) {
	items := dataset.Independent(400, 3, 42)
	for _, p := range []Partitioner{Spatial{}, Hash{}, RoundRobin{}} {
		ix := buildMutable(t, 3, nil, 4, p, -1)
		if ix.RootPage() != index.InvalidNode {
			t.Fatalf("%s: empty composite has a root", p.Name())
		}
		for _, it := range items {
			if err := ix.Insert(it.ID, it.Point); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
		if err := ix.Insert(items[0].ID, items[0].Point); err == nil {
			t.Fatalf("%s: duplicate insert accepted", p.Name())
		}
		if ix.Len() != len(items) {
			t.Fatalf("%s: len %d, want %d", p.Name(), ix.Len(), len(items))
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := collectItems(t, ix)
		if !reflect.DeepEqual(sortedIDs(got), sortedIDs(items)) {
			t.Fatalf("%s: live-inserted composite lost items", p.Name())
		}
		// Balance sanity for the balancing routers.
		if p.Name() != "spatial" {
			for s, sz := range ix.ShardSizes() {
				if sz == 0 {
					t.Fatalf("%s: shard %d empty after %d inserts", p.Name(), s, len(items))
				}
			}
		}
	}
}

// TestLiveChurnSearchEquivalence churns a sharded-over-dynamic composite
// and checks that a batch walk over a fresh composite snapshot stays
// bit-identical to a drained Searcher over a from-scratch mem build of the
// live set — across merges, tombstones and root growth.
func TestLiveChurnSearchEquivalence(t *testing.T) {
	const d = 2
	rng := rand.New(rand.NewSource(43))
	items := dataset.Independent(600, d, 43)
	ix := buildMutable(t, d, items[:300], 3, Spatial{}, 64)
	live := map[index.ObjID]vec.Point{}
	for _, it := range items[:300] {
		live[it.ID] = it.Point
	}
	fns := []prefs.Function{
		prefs.MustFunction(0, []float64{0.5, 0.5}),
		prefs.MustFunction(1, []float64{0.9, 0.1}),
	}
	check := func() {
		t.Helper()
		flat := make([]index.Item, 0, len(live))
		for id, p := range live {
			flat = append(flat, index.Item{ID: id, Point: p})
		}
		ref, err := mem.Build(d, flat, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := ix.Snapshot()
		for _, f := range fns {
			want := drainTopK(t, ref, f, 10)
			if got := walkTopK(t, snap, []prefs.Preference{f}, 10, nil)[0]; !reflect.DeepEqual(got, want) {
				t.Fatalf("fn %d: composite walk diverges from rebuild", f.ID)
			}
		}
	}
	check()
	next := 300
	ids := func() []index.ObjID {
		out := make([]index.ObjID, 0, len(live))
		for id := range live {
			out = append(out, id)
		}
		for i := 1; i < len(out); i++ { // insertion sort for determinism
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	for step := 0; step < 240; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && next < len(items):
			it := items[next]
			next++
			if err := ix.Insert(it.ID, it.Point); err != nil {
				t.Fatal(err)
			}
			live[it.ID] = it.Point
		case op == 1 && len(live) > 0:
			id := ids()[rng.Intn(len(live))]
			if err := ix.Delete(id, live[id]); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		case op == 2 && len(live) > 0:
			id := ids()[rng.Intn(len(live))]
			np := vec.Point{rng.Float64(), rng.Float64()}
			if err := ix.Update(id, np); err != nil {
				t.Fatal(err)
			}
			live[id] = np
		}
		if step%48 == 47 {
			if err := ix.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			check()
		}
	}
}

// TestConcurrentShardedChurn runs snapshot readers (with pooled-style
// Refresh) against a sharded-over-dynamic composite while a writer churns
// it through per-shard merges. Under -race this is the composite's epoch
// consistency test.
func TestConcurrentShardedChurn(t *testing.T) {
	const d = 2
	items := dataset.Independent(1200, d, 44)
	ix := buildMutable(t, d, items[:600], 3, Hash{}, 48)
	f := prefs.MustFunction(0, []float64{0.4, 0.6})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap := ix.Snapshot().(*snapshot)
			c := &stats.Counters{}
			buf := make([]topk.Result, 0, 8)
			for !stop.Load() {
				snap.Refresh()
				pinned := snap.Len()
				var err error
				buf, err = topk.SearchAppend(buf[:0], snap, f, 5, c)
				if err != nil {
					t.Error(err)
					return
				}
				want := 5
				if pinned < want {
					want = pinned
				}
				if len(buf) != want {
					t.Errorf("pinned size %d but %d results", pinned, len(buf))
					return
				}
				for i := 1; i < len(buf); i++ {
					if topk.Better(buf[i], buf[i-1]) {
						t.Errorf("results out of order at %d", i)
						return
					}
				}
			}
		}()
	}

	pts := map[index.ObjID]vec.Point{}
	for _, it := range items[:600] {
		pts[it.ID] = it.Point
	}
	for round := 0; round < 2; round++ {
		for _, it := range items[:600] {
			if err := ix.Delete(it.ID, pts[it.ID]); err != nil {
				t.Fatal(err)
			}
			np := it.Point.Clone()
			np[round%d] = 1 - np[round%d]
			if err := ix.Insert(it.ID, np); err != nil {
				t.Fatal(err)
			}
			pts[it.ID] = np
		}
	}
	for _, it := range items[600:] {
		if err := ix.Insert(it.ID, it.Point); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	merges := int64(0)
	for _, s := range ix.shards {
		merges += s.(*dynamic.Index).MergesCompleted()
	}
	if merges == 0 {
		t.Fatal("churn volume never triggered a shard merge")
	}
}

// TestRouteDeterminism pins Route: same id/point/view, same shard.
func TestRouteDeterminism(t *testing.T) {
	view := RouteView{
		Sizes: []int{3, 0, 5},
		Rects: []vec.Rect{
			{Lo: vec.Point{0, 0}, Hi: vec.Point{0.4, 0.4}},
			{},
			{Lo: vec.Point{0.5, 0.5}, Hi: vec.Point{1, 1}},
		},
	}
	for _, p := range []Partitioner{Spatial{}, Hash{}, RoundRobin{}} {
		for i := 0; i < 10; i++ {
			a := p.Route(77, vec.Point{0.6, 0.6}, view)
			b := p.Route(77, vec.Point{0.6, 0.6}, view)
			if a != b {
				t.Fatalf("%s: nondeterministic route %d vs %d", p.Name(), a, b)
			}
			if a < 0 || a >= len(view.Sizes) {
				t.Fatalf("%s: route %d out of range", p.Name(), a)
			}
		}
	}
	// Spatial prefers the empty shard, then least enlargement.
	if s := (Spatial{}).Route(1, vec.Point{0.6, 0.6}, view); s != 1 {
		t.Fatalf("spatial ignored the empty shard: %d", s)
	}
	occupied := RouteView{Sizes: []int{3, 5}, Rects: []vec.Rect{view.Rects[0], view.Rects[2]}}
	if s := (Spatial{}).Route(1, vec.Point{0.6, 0.6}, occupied); s != 1 {
		t.Fatalf("spatial did not pick the containing tile: %d", s)
	}
	// RoundRobin balances.
	if s := (RoundRobin{}).Route(1, vec.Point{0.1, 0.1}, occupied); s != 0 {
		t.Fatalf("rr did not pick the smallest shard: %d", s)
	}
}

// TestReadOnlyErrorsUnified pins satellite (a): every read-only surface
// rejects mutations with an error wrapping index.ErrReadOnly and naming the
// surface.
func TestReadOnlyErrorsUnified(t *testing.T) {
	items := dataset.Independent(50, 2, 45)
	memIx, err := mem.Build(2, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	dynIx, err := dynamic.Build(2, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	shardedIx, err := Build(2, items, &Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"mem snapshot Delete", memIx.Snapshot().Delete(items[0].ID, items[0].Point)},
		{"dynamic snapshot Delete", dynIx.Snapshot().Delete(items[0].ID, items[0].Point)},
		{"sharded snapshot Delete", shardedIx.Snapshot().Delete(items[0].ID, items[0].Point)},
		{"sharded-over-mem Insert", shardedIx.Insert(9999, vec.Point{0.5, 0.5})},
		{"sharded-over-mem Update", shardedIx.Update(items[0].ID, vec.Point{0.5, 0.5})},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, index.ErrReadOnly) {
			t.Errorf("%s: error does not wrap ErrReadOnly: %v", tc.name, tc.err)
			continue
		}
		msg := tc.err.Error()
		if msg == index.ErrReadOnly.Error() {
			t.Errorf("%s: error does not name the rejecting surface: %q", tc.name, msg)
		}
		if !strings.Contains(msg, "read-only") {
			t.Errorf("%s: message %q missing %q", tc.name, msg, "read-only")
		}
	}
}
