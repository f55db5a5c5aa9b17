// Tests for the sharded Server: counter merging under concurrent requests
// must be race-clean (CI runs -race) and lossless — the server totals are
// exactly the sum of the per-request counters.
package prefmatch_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prefmatch"
)

// TestServerStatsMergeConcurrentSharded fires matching waves at a sharded
// server from many goroutines, then checks that every additive Stats field
// equals the sum over the per-request results — nothing lost, nothing
// double-counted in the merge.
func TestServerStatsMergeConcurrentSharded(t *testing.T) {
	const (
		d      = 3
		nWaves = 16
		perW   = 15
	)
	objs := serveObjects(700, d, 321)
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	waves := make([][]prefmatch.Query, nWaves)
	for w := range waves {
		waves[w] = serveQueries(perW, d, int64(322+w))
	}
	results, err := srv.MatchMany(waves, nil, 8)
	if err != nil {
		t.Fatal(err)
	}

	var pairs, loops, ta, skyUpd, top1 int64
	var elapsed time.Duration
	for _, res := range results {
		pairs += res.Stats.Pairs
		loops += res.Stats.Loops
		ta += res.Stats.TAListAccesses
		skyUpd += res.Stats.SkylineUpdates
		top1 += res.Stats.Top1Searches
		elapsed += res.Stats.Elapsed
	}
	got := srv.Stats()
	if got.Pairs != pairs || got.Loops != loops || got.TAListAccesses != ta ||
		got.SkylineUpdates != skyUpd || got.Top1Searches != top1 {
		t.Fatalf("merged totals differ from the sum of per-request counters:\nserver %+v\nsums   pairs=%d loops=%d ta=%d skyUpd=%d top1=%d",
			got, pairs, loops, ta, skyUpd, top1)
	}
	if got.Elapsed != elapsed {
		t.Fatalf("merged elapsed %v, sum of request elapsed %v", got.Elapsed, elapsed)
	}
	if srv.Served() != nWaves {
		t.Fatalf("Served() = %d, want %d", srv.Served(), nWaves)
	}
	if pairs == 0 {
		t.Fatal("degenerate run: no pairs emitted")
	}
}

// TestServerShardedTopKConcurrent hammers the sharded top-k path — walks
// over pooled composite snapshots — from many goroutines and checks that
// the request count and the pruning counter survive the merge. Primarily a
// -race target for the per-shard accounting the walks settle.
func TestServerShardedTopKConcurrent(t *testing.T) {
	const d = 3
	objs := serveObjects(900, d, 331)
	qs := serveQueries(40, d, 332)
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]prefmatch.Assignment, len(qs))
	for i, q := range qs {
		if want[i], err = prefmatch.TopK(objs, q, 3, &prefmatch.Options{Backend: prefmatch.Memory}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range qs {
				got, err := srv.TopK(q, 3)
				if err != nil {
					errs[g] = err
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						errs[g] = errMismatch
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if srv.Served() != int64(8*len(qs)) {
		t.Fatalf("Served() = %d, want %d", srv.Served(), 8*len(qs))
	}
	if s := srv.Stats(); s.ShardsPruned < 0 || s.Top1Searches == 0 {
		t.Fatalf("implausible merged stats: %+v", s)
	}
}

var errMismatch = errConst("sharded top-k differs from the sequential answer")

type errConst string

func (e errConst) Error() string { return string(e) }

// TestShardAccountingExact pins the per-request shard accounting of a
// spatially sharded server: Stats.ShardsPruned, pm_shard_queries_total and
// pm_shard_pruned_total. The objects lie on the diagonal (t, t), so the
// spatial partitioner puts the i-th quarter of t into shard i and every
// positive-weight query ranks by t alone, which makes the shards each walk
// must enter known: TopK with k = 1 stays in shard 3, k = n/4+1 also needs
// shard 2's best, k = n enters all four, and k = 0 reads nothing. Skyline
// (only the top point is undominated) and a session's first walk (2k+8 = 10
// deep) enter shard 3 alone; the session's repeat is answered without a
// walk and settles nothing. Matching waves settle once per wave: every
// skyline is the single top remaining point, so a wave of n/4+1 queries
// matches all of shard 3 and then needs shard 2's best, and each of
// MatchMany's two one-query waves enters shard 3 alone.
func TestShardAccountingExact(t *testing.T) {
	const n = 400
	objs := make([]prefmatch.Object, n)
	for i := range objs {
		v := float64(i+1) / n
		objs[i] = prefmatch.Object{ID: i, Values: []float64{v, v}}
	}
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: 4, ShardBy: prefmatch.ShardSpatial})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := prefmatch.Query{ID: 1, Weights: []float64{0.3, 0.7}}
	for _, k := range []int{1, n/4 + 1, n, 0} {
		if _, err := srv.TopK(q, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Skyline(); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession(q)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		if _, err := sess.TopK(1); err != nil {
			t.Fatal(err)
		}
	}
	wave := make([]prefmatch.Query, n/4+1)
	for i := range wave {
		wave[i] = prefmatch.Query{ID: i, Weights: q.Weights}
	}
	res, err := srv.Match(wave, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsPruned != 2 {
		t.Errorf("Match: Stats.ShardsPruned = %d, want 2", res.Stats.ShardsPruned)
	}
	many, err := srv.MatchMany([][]prefmatch.Query{{q}, {q}}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range many {
		if r.Stats.ShardsPruned != 3 {
			t.Errorf("MatchMany wave %d: Stats.ShardsPruned = %d, want 3", i, r.Stats.ShardsPruned)
		}
	}
	wantQueries := []float64{1, 1, 3, 8}
	wantPruned := []float64{7, 7, 5, 0}
	for s := range wantQueries {
		label := fmt.Sprintf(`{shard="%d"}`, s)
		if got := metricValue(t, srv, "pm_shard_queries_total"+label); got != wantQueries[s] {
			t.Errorf("shard %d searched %v times, want %v", s, got, wantQueries[s])
		}
		if got := metricValue(t, srv, "pm_shard_pruned_total"+label); got != wantPruned[s] {
			t.Errorf("shard %d pruned %v times, want %v", s, got, wantPruned[s])
		}
	}
	if got := srv.Stats().ShardsPruned; got != 19 {
		t.Errorf("Stats.ShardsPruned = %d, want 19", got)
	}
}
