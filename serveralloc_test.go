// Tests for the batched serving path: Server.TopKMany must share traversals
// without changing a single answer, and its append form must reach the same
// zero-allocation steady state the internal search layer guarantees —
// the server-side extension of internal/topk's TestZeroAllocSteadyState.
package prefmatch_test

import (
	"context"
	"reflect"
	"testing"

	"prefmatch"
	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// TestServerTopKManyAppendEqualsTopKMany pins the append form to the
// slice-of-slices form on both server shapes: same assignments, same order,
// same boundaries, for batches smaller and larger than one chunk.
func TestServerTopKManyAppendEqualsTopKMany(t *testing.T) {
	const d = 4
	objs := serveObjects(1200, d, 81)
	for _, shards := range []int{0, 3} {
		srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, nq := range []int{1, 7, 150} { // 150 spans three chunks
			qs := serveQueries(nq, d, 82)
			for _, k := range []int{1, 3} {
				want, err := srv.TopKMany(qs, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				dst, offsets, err := srv.TopKManyAppend(nil, nil, qs, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(offsets) != len(qs)+1 {
					t.Fatalf("shards=%d nq=%d k=%d: %d offsets for %d queries", shards, nq, k, len(offsets), len(qs))
				}
				if offsets[len(offsets)-1] != len(dst) {
					t.Fatalf("shards=%d nq=%d k=%d: final boundary %d, len(dst)=%d", shards, nq, k, offsets[len(offsets)-1], len(dst))
				}
				for i := range qs {
					got := dst[offsets[i]:offsets[i+1]]
					if len(got) == 0 && len(want[i]) == 0 {
						continue
					}
					if !reflect.DeepEqual([]prefmatch.Assignment(got), want[i]) {
						t.Fatalf("shards=%d nq=%d k=%d query %d: append form differs\ngot  %v\nwant %v",
							shards, nq, k, qs[i].ID, got, want[i])
					}
				}
			}
		}
		// k == 0 still validates and returns empty rankings.
		qs := serveQueries(5, d, 83)
		dst, offsets, err := srv.TopKManyAppend(nil, nil, qs, 0)
		if err != nil || len(dst) != 0 || len(offsets) != len(qs)+1 {
			t.Fatalf("shards=%d k=0: dst=%v offsets=%v err=%v", shards, dst, offsets, err)
		}
		bad := []prefmatch.Query{{ID: 9, Weights: []float64{0.5}}}
		if _, _, err := srv.TopKManyAppend(nil, nil, bad, 3); err == nil {
			t.Fatalf("shards=%d: dimension mismatch accepted", shards)
		}
		if _, _, err := srv.TopKManyAppend(nil, nil, qs, -1); err == nil {
			t.Fatalf("shards=%d: negative k accepted", shards)
		}
	}
}

// TestZeroAllocSteadyStateServerTopKMany extends the internal zero-alloc
// steady-state pin to the server's batched serving path: after warm-up, a
// TopKManyAppend batch over the memory backend — pooled snapshot plumbing,
// pooled batch searcher, arena-normalised query weights, caller-recycled
// result buffers — performs zero allocations per batch. TopKMany itself
// necessarily allocates per query — a validated weight vector, its
// interface box and the result slice — but nothing else: its allocations
// must stay a small constant plus three per query, independent of tree
// size, k, or nodes visited.
func TestZeroAllocSteadyStateServerTopKMany(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		d = 4
		k = 10
		q = 8
	)
	srv, err := prefmatch.NewServer(serveObjects(5000, d, 84), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := serveQueries(q, d, 85)

	var (
		dst      []prefmatch.Assignment
		offsets  []int
		batchErr error
	)
	appendBatch := func() {
		dst, offsets, batchErr = srv.TopKManyAppend(dst[:0], offsets[:0], qs, k)
	}
	for i := 0; i < 5; i++ {
		appendBatch()
		if batchErr != nil {
			t.Fatal(batchErr)
		}
	}
	if allocs := testing.AllocsPerRun(200, appendBatch); allocs != 0 {
		t.Fatalf("steady-state TopKManyAppend allocated %v times per batch, want 0", allocs)
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if len(dst) != q*k {
		t.Fatalf("append batch returned %d assignments, want %d", len(dst), q*k)
	}

	var manyErr error
	manyBatch := func() {
		_, manyErr = srv.TopKMany(qs, k, 1)
	}
	for i := 0; i < 5; i++ {
		manyBatch()
		if manyErr != nil {
			t.Fatal(manyErr)
		}
	}
	allocs := testing.AllocsPerRun(200, manyBatch)
	if manyErr != nil {
		t.Fatal(manyErr)
	}
	if limit := float64(3*q + 8); allocs > limit {
		t.Fatalf("steady-state TopKMany allocated %v times per batch, want <= %v (result slices only)", allocs, limit)
	}
}

// TestZeroAllocGatedContextTopKManyAppend extends the zero-allocation pin
// to the production-hardening layer: the same steady-state batch through
// TopKManyAppendContext, with the admission gate armed (MaxInFlight) and a
// live cancelable context driving the cooperative checkpoints. The gate's
// uncontended path and the per-node cancellation checks must both stay
// allocation-free, or deadlines would tax every request that never fires
// one.
func TestZeroAllocGatedContextTopKManyAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		d = 4
		k = 10
		q = 8
	)
	srv, err := prefmatch.NewServer(serveObjects(5000, d, 84), &prefmatch.Options{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := serveQueries(q, d, 85)
	// A cancelable (but never canceled) context: Done() is non-nil, so
	// every checkpoint takes the real token path, not the zero-token skip.
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()

	var (
		dst      []prefmatch.Assignment
		offsets  []int
		batchErr error
	)
	appendBatch := func() {
		dst, offsets, batchErr = srv.TopKManyAppendContext(ctx, dst[:0], offsets[:0], qs, k)
	}
	for i := 0; i < 5; i++ {
		appendBatch()
		if batchErr != nil {
			t.Fatal(batchErr)
		}
	}
	if allocs := testing.AllocsPerRun(200, appendBatch); allocs != 0 {
		t.Fatalf("gated steady-state TopKManyAppendContext allocated %v times per batch, want 0", allocs)
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if len(dst) != q*k {
		t.Fatalf("gated append batch returned %d assignments, want %d", len(dst), q*k)
	}
}

// TestSteadyStateServerTopKAllocs pins the batch-of-one TopK to one
// allocation per call on a memory server: the returned slice. Validation,
// pinning, the batch search and the emit all run on pooled scratch.
func TestSteadyStateServerTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const d, k = 4, 10
	srv, err := prefmatch.NewServer(serveObjects(5000, d, 84), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := serveQueries(1, d, 85)[0]
	var (
		out    []prefmatch.Assignment
		topErr error
	)
	call := func() { out, topErr = srv.TopK(q, k) }
	for i := 0; i < 5; i++ {
		call()
	}
	if allocs := testing.AllocsPerRun(200, call); allocs > 1 {
		t.Fatalf("steady-state Server.TopK allocated %v times per call, want <= 1 (the result slice)", allocs)
	}
	if topErr != nil || len(out) != k {
		t.Fatalf("TopK returned %d assignments, err %v", len(out), topErr)
	}
}

// TestServerTopKNodeParity pins the node accounting of the batch-of-one
// TopK: on a memory server each call advances Stats().NodesVisited by
// exactly the nodes a resumable topk.Searcher reads over mem.Build of the
// same items when drained k deep, with the same answer. The benchmark's
// traced replay compares Server.TopK with topk.SearchAppend per query and
// relies on this.
func TestServerTopKNodeParity(t *testing.T) {
	const d = 4
	objs := serveObjects(5000, d, 86)
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Backend: prefmatch.Memory})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]index.Item, len(objs))
	for i, o := range objs {
		items[i] = index.Item{ID: index.ObjID(o.ID), Point: vec.Point(o.Values)}
	}
	ix, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, 100} {
		for _, q := range serveQueries(40, d, 87) {
			before := srv.Stats().NodesVisited
			got, err := srv.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			nodes := srv.Stats().NodesVisited - before
			f, err := prefs.NewFunction(q.ID, q.Weights)
			if err != nil {
				t.Fatal(err)
			}
			var c stats.Counters
			srch := topk.NewSearcher()
			srch.Reset(ix, &f, &c)
			var want []topk.Result
			for len(want) < k {
				r, ok, err := srch.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				want = append(want, r)
			}
			if nodes != c.NodesVisited {
				t.Fatalf("k=%d query %d: Server.TopK visited %d nodes, a drained Searcher %d", k, q.ID, nodes, c.NodesVisited)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d query %d: %d results, want %d", k, q.ID, len(got), len(want))
			}
			for i, r := range want {
				if got[i] != (prefmatch.Assignment{QueryID: q.ID, ObjectID: int(r.ID), Score: r.Score}) {
					t.Fatalf("k=%d query %d rank %d: %v, want %v", k, q.ID, i, got[i], r)
				}
			}
		}
	}
}

// TestNewServerAllocsIndependentOfN pins the bulk load's allocation count:
// converting the objects and STR-packing the arena allocate per tree level,
// never per object or per node. A Memory server over 40K objects may
// allocate no more than one over 10K (both trees are three levels deep),
// up to a slack for the hash-seeded growth of the metric registry's maps,
// and either count is far below n.
func TestNewServerAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const slack = 16
	allocs := func(n int) float64 {
		items := dataset.Independent(n, 4, 86)
		objs := make([]prefmatch.Object, n)
		for i, it := range items {
			objs[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
		}
		return testing.AllocsPerRun(5, func() {
			srv, err := prefmatch.NewServer(objs, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv.Close()
		})
	}
	small, large := allocs(10_000), allocs(40_000)
	if large > small+slack || small >= 10_000/10 {
		t.Fatalf("NewServer allocates %v times over 10K objects and %v over 40K; want a count independent of n, below n/10", small, large)
	}
}
