// Tests for matching on a sharded Server at the public surface: every
// Match/MatchMany wave walks a pooled composite snapshot. Everything here
// must be race-clean (CI runs the suite with -race) and bit-identical to the
// sequential single-index matchers, including capacitated objects;
// Server.Stats must equal the fold of the per-request stats.
package prefmatch_test

import (
	"reflect"
	"testing"

	"prefmatch"
	"prefmatch/internal/dataset"
)

// TestShardedServerMatchManyEqualsSequential: parallel MatchMany on sharded
// servers (shard counts × partitioners) against the sequential single-index
// reference — same assignments, same order, same scores — plus the
// accounting contract: the server totals are exactly the sum (max, for
// SkylineMax) of the per-request stats.
func TestShardedServerMatchManyEqualsSequential(t *testing.T) {
	const (
		d      = 3
		nWaves = 10
		perW   = 18
	)
	objs := serveObjects(1200, d, 401) // every 25th object has capacity 2
	waves := make([][]prefmatch.Query, nWaves)
	for w := range waves {
		waves[w] = serveQueries(perW, d, int64(402+w))
	}
	want := make([]*prefmatch.Result, nWaves)
	for w := range waves {
		res, err := prefmatch.Match(objs, waves[w], &prefmatch.Options{Backend: prefmatch.Memory})
		if err != nil {
			t.Fatal(err)
		}
		want[w] = res
	}

	type cfg struct {
		shards int
		by     prefmatch.ShardBy
	}
	for _, c := range []cfg{
		{2, prefmatch.ShardSpatial},
		{3, prefmatch.ShardHash},
		{7, prefmatch.ShardRoundRobin},
	} {
		srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: c.shards, ShardBy: c.by})
		if err != nil {
			t.Fatal(err)
		}
		// workers > waves: every wave gets its own worker and pooled
		// composite snapshot (race-exercised).
		got, err := srv.MatchMany(waves, nil, 2*nWaves)
		if err != nil {
			t.Fatalf("shards=%d by=%v: %v", c.shards, c.by, err)
		}
		var sum prefmatch.Stats
		for w := range waves {
			if !reflect.DeepEqual(got[w].Assignments, want[w].Assignments) {
				t.Fatalf("shards=%d by=%v wave %d: parallel sharded assignments differ from sequential single-index", c.shards, c.by, w)
			}
			if err := prefmatch.Verify(objs, waves[w], got[w].Assignments); err != nil {
				t.Fatalf("shards=%d by=%v wave %d: %v", c.shards, c.by, w, err)
			}
			s := got[w].Stats
			sum.Pairs += s.Pairs
			sum.Loops += s.Loops
			sum.IOAccesses += s.IOAccesses
			sum.Top1Searches += s.Top1Searches
			sum.TAListAccesses += s.TAListAccesses
			sum.SkylineUpdates += s.SkylineUpdates
			sum.ShardsPruned += s.ShardsPruned
			if s.SkylineMax > sum.SkylineMax {
				sum.SkylineMax = s.SkylineMax
			}
			sum.Elapsed += s.Elapsed
		}
		tot := srv.Stats()
		if tot.Pairs != sum.Pairs || tot.Loops != sum.Loops || tot.IOAccesses != sum.IOAccesses ||
			tot.Top1Searches != sum.Top1Searches || tot.TAListAccesses != sum.TAListAccesses ||
			tot.SkylineUpdates != sum.SkylineUpdates || tot.ShardsPruned != sum.ShardsPruned ||
			tot.SkylineMax != sum.SkylineMax || tot.Elapsed != sum.Elapsed {
			t.Fatalf("shards=%d by=%v: Server.Stats %+v is not the fold of the per-request stats %+v", c.shards, c.by, tot, sum)
		}
		if srv.Served() != nWaves {
			t.Fatalf("shards=%d by=%v: Served() = %d, want %d", c.shards, c.by, srv.Served(), nWaves)
		}
		if srv.Len() != 1200 {
			t.Fatalf("shards=%d by=%v: serving consumed the shared composite", c.shards, c.by)
		}
	}
}

// TestShardedServerMatchSmallBatch: fewer waves than workers, and the same
// wave twice, so two concurrent walks share nothing but the composite.
func TestShardedServerMatchSmallBatch(t *testing.T) {
	const d = 3
	objs := serveObjects(900, d, 411)
	wave := serveQueries(30, d, 412)
	want, err := prefmatch.Match(objs, wave, &prefmatch.Options{Backend: prefmatch.Memory})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.MatchMany([][]prefmatch.Query{wave, wave}, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Assignments, want.Assignments) {
			t.Fatalf("wave %d: small-batch sharded assignments differ", i)
		}
	}
}

// TestShardedServerRejectsDestructiveAlgorithms: the Server contract (SB
// only) holds on a sharded server too.
func TestShardedServerRejectsDestructiveAlgorithms(t *testing.T) {
	objs := serveObjects(120, 2, 421)
	qs := serveQueries(6, 2, 422)
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []prefmatch.Algorithm{prefmatch.BruteForce, prefmatch.Chain, prefmatch.BruteForceIncremental} {
		if _, err := srv.Match(qs, &prefmatch.Options{Algorithm: alg}); err == nil {
			t.Fatalf("%v accepted by sharded Server.Match", alg)
		}
	}
}

// TestDynamicMatchMakesMemoryDominanceChecks: SB's dominance cells split
// the root's budget down past a narrow root, so a Dynamic server, whose
// synthetic root has the base tree as its one child, gets the same cells
// as Memory over the same objects and makes exactly as many dominance
// checks, with the same matching. When cells started at the root's
// children, the Dynamic server had one cell and made more checks.
func TestDynamicMatchMakesMemoryDominanceChecks(t *testing.T) {
	const d = 4
	items := dataset.AntiCorrelated(5000, d, 1)
	objs := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objs[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	fns := dataset.Functions(100, d, 2)
	qs := make([]prefmatch.Query, len(fns))
	for i, f := range fns {
		qs[i] = prefmatch.Query{ID: f.ID, Weights: f.Weights}
	}
	var want *prefmatch.Result
	for _, b := range []prefmatch.Backend{prefmatch.Memory, prefmatch.Dynamic} {
		srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Match(qs, nil)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d dominance checks", b, res.Stats.DominanceChecks)
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Assignments, want.Assignments) {
			t.Fatalf("%v matching differs from Memory's", b)
		}
		if res.Stats.DominanceChecks != want.Stats.DominanceChecks {
			t.Errorf("%v made %d dominance checks, Memory %d", b, res.Stats.DominanceChecks, want.Stats.DominanceChecks)
		}
	}
}
