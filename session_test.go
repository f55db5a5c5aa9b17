// Tests for the preference-session layer and the unified Preference entry
// points: sessions must answer bit-identically to cold requests however
// the answer was produced (cache hit, re-qualification, walk), and
// TopKPref must agree exactly with the concretely-typed TopK/TopKMonotone.
package prefmatch_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"prefmatch"
)

// sessionObjects builds a dataset with a separated head: the first 25
// objects ("superstars") dominate every coordinate with evenly spaced
// values, so top-k ranks have real score gaps and small weight nudges
// provably re-qualify; the rest is uniform noise below 0.4. Cache- and
// re-qualification tests need the gaps — uniform data packs ranks so
// tightly that every nudge falls back, leaving the incremental paths
// untested.
func sessionObjects(n, d int, seed int64) []prefmatch.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]prefmatch.Object, n)
	for i := range objs {
		vals := make([]float64, d)
		if i < 25 {
			for j := range vals {
				vals[j] = 1.0 - 0.015*float64(i)
			}
		} else {
			for j := range vals {
				vals[j] = rng.Float64() * 0.4
			}
		}
		objs[i] = prefmatch.Object{ID: i, Values: vals}
	}
	return objs
}

// metricValue scrapes one metric from the server's Prometheus text surface —
// the same bytes the admin /metrics endpoint serves, so tests observe the
// serving paths exactly as an operator would.
func metricValue(t *testing.T, srv *prefmatch.Server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: unparsable value %q", name, rest)
		}
		return v
	}
	t.Fatalf("metric %s not found in WriteMetrics output", name)
	return 0
}

// TestSessionTopKHugeK is the regression test for the session fetch depth
// overflowing: 2k+8 was unbounded, so on a 100-object server
// Session.TopK(1<<62) returned no rows, k = MaxInt-3 failed with an
// index-out-of-range worker panic and k = MaxInt returned 6 rows. Every
// huge k must return what Server.TopK returns — all 100 rows — on the walk
// that answers a fresh session and on the repeat that the session answers
// from its retained state.
func TestSessionTopKHugeK(t *testing.T) {
	objs := sessionObjects(100, 3, 5)
	srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Backend: prefmatch.Memory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := prefmatch.Query{ID: 9, Weights: []float64{0.5, 0.3, 0.2}}
	for _, k := range []int{1 << 40, 1 << 62, math.MaxInt - 3, math.MaxInt} {
		want, err := srv.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(objs) {
			t.Fatalf("k=%d: Server.TopK returned %d rows, want %d", k, len(want), len(objs))
		}
		sess, err := srv.OpenSession(q)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 2; call++ {
			got, err := sess.TopK(k)
			if err != nil {
				t.Fatalf("k=%d call %d: %v", k, call, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d call %d: Session.TopK returned %d rows, Server.TopK %d", k, call, len(got), len(want))
			}
		}
		sess.Close()
	}
}

// TestTopKPrefEquivalence pins every top-k entry point to one answer. On
// mem, dynamic and sharded {1,3,7} servers, for k = 0, a small k and k past
// the object count, TopK, TopKPref (Query, *Query, context), TopKMonotone
// and TopKPref over the normalised linear preference, TopKMany[i] and
// TopKManyAppend agree bit for bit, and a bare Preference runs as an
// anonymous monotone query. Invalid requests — negative k, bad weights —
// fail with the same error text from every entry point, whatever k.
func TestTopKPrefEquivalence(t *testing.T) {
	const d = 3
	objs := serveObjects(500, d, 81)
	queries := serveQueries(70, d, 82) // TopKMany spans two chunks
	servers := []struct {
		name string
		opts *prefmatch.Options
	}{
		{"mem", nil},
		{"dynamic", &prefmatch.Options{Backend: prefmatch.Dynamic}},
		{"sharded1", &prefmatch.Options{Shards: 1}},
		{"sharded3", &prefmatch.Options{Shards: 3}},
		{"sharded7", &prefmatch.Options{Shards: 7}},
	}
	same := func(a, b []prefmatch.Assignment) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].QueryID != b[i].QueryID || a[i].ObjectID != b[i].ObjectID ||
				math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				return false
			}
		}
		return true
	}
	for _, sv := range servers {
		srv, err := prefmatch.NewServer(objs, sv.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 7, 600} {
			many, err := srv.TopKMany(queries, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			flat, offs, err := srv.TopKManyAppend(nil, nil, queries, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				want, err := srv.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if wantLen := min(k, len(objs)); len(want) != wantLen {
					t.Fatalf("%s k=%d: TopK returned %d, want %d", sv.name, k, len(want), wantLen)
				}
				// TopKMonotone over the weights normalised exactly like a
				// Query's, so the raw linear score is bit-identical.
				sum := 0.0
				for _, w := range q.Weights {
					sum += w
				}
				norm := make([]float64, len(q.Weights))
				for j, w := range q.Weights {
					norm[j] = w / sum
				}
				pq := prefmatch.PreferenceQuery{ID: q.ID, Preference: prefmatch.LinearPreference{Weights: norm}}
				mono, err := srv.TopKMonotone(pq, k)
				if err != nil {
					t.Fatal(err)
				}
				forms := map[string]func() ([]prefmatch.Assignment, error){
					"TopKPref(Query)":           func() ([]prefmatch.Assignment, error) { return srv.TopKPref(q, k) },
					"TopKPref(*Query)":          func() ([]prefmatch.Assignment, error) { return srv.TopKPref(&q, k) },
					"TopKPrefContext":           func() ([]prefmatch.Assignment, error) { return srv.TopKPrefContext(context.Background(), q, k) },
					"TopKPref(PreferenceQuery)": func() ([]prefmatch.Assignment, error) { return srv.TopKPref(pq, k) },
					"TopKPref(*PreferenceQuery)": func() ([]prefmatch.Assignment, error) {
						return srv.TopKPref(&pq, k)
					},
					"TopKMonotone":      func() ([]prefmatch.Assignment, error) { return mono, nil },
					"TopKMany[i]":       func() ([]prefmatch.Assignment, error) { return many[i], nil },
					"TopKManyAppend[i]": func() ([]prefmatch.Assignment, error) { return flat[offs[i]:offs[i+1]], nil },
				}
				for name, form := range forms {
					got, err := form()
					if err != nil {
						t.Fatal(err)
					}
					if !same(got, want) {
						t.Fatalf("%s k=%d query %d: %s differs from TopK\ngot  %v\nwant %v", sv.name, k, q.ID, name, got, want)
					}
				}
			}

			// A bare Preference runs as an anonymous monotone query (ID 0).
			bare := prefmatch.LinearPreference{Weights: queries[0].Weights}
			wantB, err := srv.TopKMonotone(prefmatch.PreferenceQuery{ID: 0, Preference: bare}, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.TopKPref(bare, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantB) {
				t.Fatalf("%s k=%d: TopKPref(bare Preference) != anonymous TopKMonotone", sv.name, k)
			}
		}

		// Every entry point rejects the same request with the same text,
		// and k = 0 never skips validation.
		errText := func(err error) string {
			if err == nil {
				return "<nil>"
			}
			return err.Error()
		}
		for _, c := range []struct {
			q    prefmatch.Query
			k    int
			want string
		}{
			{queries[0], -1, "prefmatch: negative k -1"},
			{prefmatch.Query{ID: 9, Weights: []float64{0.5, 0.5}}, 3, "prefmatch: query 9 has 2 weights, want 3"},
			{prefmatch.Query{ID: 9, Weights: []float64{0.5, -1, 0.5}}, 0, "prefmatch: query 9: prefs: negative weight: -1"},
			{prefmatch.Query{ID: 9, Weights: []float64{0, 0, 0}}, 3, "prefmatch: query 9: prefs: all weights zero"},
		} {
			_, e1 := srv.TopK(c.q, c.k)
			_, e2 := srv.TopKPref(c.q, c.k)
			_, e3 := srv.TopKMany([]prefmatch.Query{c.q}, c.k, 1)
			_, _, e4 := srv.TopKManyAppend(nil, nil, []prefmatch.Query{c.q}, c.k)
			for name, err := range map[string]error{"TopK": e1, "TopKPref": e2, "TopKMany": e3, "TopKManyAppend": e4} {
				if errText(err) != c.want {
					t.Fatalf("%s %s(query %d, k=%d): error %q, want %q", sv.name, name, c.q.ID, c.k, errText(err), c.want)
				}
			}
		}
		pq := prefmatch.PreferenceQuery{ID: 4, Preference: prefmatch.LinearPreference{Weights: []float64{1, 1, 1}}}
		if _, err := srv.TopKMonotone(pq, -1); errText(err) != "prefmatch: negative k -1" {
			t.Fatalf("%s TopKMonotone(k=-1): error %q", sv.name, errText(err))
		}
		if _, err := srv.TopKMonotone(prefmatch.PreferenceQuery{ID: 4}, 0); errText(err) != "prefmatch: preference query 4 is nil" {
			t.Fatalf("%s TopKMonotone(nil preference): error %q", sv.name, errText(err))
		}
		if _, err := srv.TopKPref(nil, 3); err == nil {
			t.Fatal("TopKPref(nil) did not error")
		}
		if _, err := srv.TopKPref((*prefmatch.Query)(nil), 3); err == nil {
			t.Fatal("TopKPref((*Query)(nil)) did not error")
		}
		if _, err := srv.TopKPref((*prefmatch.PreferenceQuery)(nil), 3); err == nil {
			t.Fatal("TopKPref((*PreferenceQuery)(nil)) did not error")
		}
	}
}

// TestSessionMatchesColdTopK drives one session through a nudge sequence —
// repeats, small nudges, large swings, changing k — and pins every answer
// to a cold Server.TopK with the same weights, on single and sharded
// servers. This crosses all three serving paths; which ones actually fired
// is asserted separately in TestSessionServesAllPaths.
func TestSessionMatchesColdTopK(t *testing.T) {
	const d = 3
	objs := sessionObjects(1200, d, 83)
	for _, shards := range []int{0, 3} {
		srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		w := []float64{0.5, 0.3, 0.2}
		sess, err := srv.OpenSession(prefmatch.Query{ID: 42, Weights: w})
		if err != nil {
			t.Fatal(err)
		}
		nudges := [][]float64{
			{0.5, 0.3, 0.2},     // repeat: cache hit
			{0.505, 0.295, 0.2}, // 1%-ish: re-qualification
			{0.51, 0.29, 0.2},
			{0.5, 0.3, 0.2}, // back to a cached key
			{0.2, 0.3, 0.5}, // large swing: fallback walk
			{0.202, 0.298, 0.5},
			{9, 3, 1}, // un-normalised input, same validation as TopK
		}
		for step, nw := range nudges {
			if err := sess.Nudge(nw); err != nil {
				t.Fatalf("shards=%d step %d: %v", shards, step, err)
			}
			for _, k := range []int{5, 9, 2} {
				got, err := sess.TopK(k)
				if err != nil {
					t.Fatalf("shards=%d step %d: %v", shards, step, err)
				}
				want, err := srv.TopK(prefmatch.Query{ID: 42, Weights: nw}, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d step %d k=%d: session answer diverges from cold TopK\nsession: %v\ncold:    %v",
						shards, step, k, got, want)
				}
			}
		}
		// TopKAppend preserves the prefix and appends the same answer.
		prefix := []prefmatch.Assignment{{QueryID: -1, ObjectID: -1, Score: -1}}
		out, err := sess.TopKAppend(prefix, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := srv.TopK(prefmatch.Query{ID: 42, Weights: []float64{9, 3, 1}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 5 || !reflect.DeepEqual(out[0], prefix[0]) || !reflect.DeepEqual(out[1:], want) {
			t.Fatalf("TopKAppend mangled the prefix or the answer: %v", out)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionServesAllPaths asserts — through the public metric surface —
// that each serving path actually fires on the separated dataset: a cold
// open falls back, a repeat hits the cache, a 1% nudge re-qualifies with no
// tree walk, and a large swing falls back again. Every answer is still
// pinned to the cold reference.
func TestSessionServesAllPaths(t *testing.T) {
	const d, k = 3, 5
	objs := sessionObjects(2000, d, 84)
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: []float64{0.5, 0.3, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(weights []float64) {
		t.Helper()
		got, err := sess.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := srv.TopK(prefmatch.Query{ID: 1, Weights: weights}, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session answer diverges from cold TopK at weights %v", weights)
		}
	}

	if open := metricValue(t, srv, "pm_sessions_open"); open != 1 {
		t.Fatalf("pm_sessions_open = %v, want 1", open)
	}

	// 1. Cold: nothing cached, must walk.
	fall0 := metricValue(t, srv, "pm_rescache_fallbacks_total")
	check([]float64{0.5, 0.3, 0.2})
	if got := metricValue(t, srv, "pm_rescache_fallbacks_total"); got != fall0+1 {
		t.Fatalf("cold serve: fallbacks %v -> %v, want +1", fall0, got)
	}

	// 2. Repeat: the answer for (w, k, epoch) is cached now.
	hit0 := metricValue(t, srv, "pm_rescache_hits_total")
	check([]float64{0.5, 0.3, 0.2})
	if got := metricValue(t, srv, "pm_rescache_hits_total"); got != hit0+1 {
		t.Fatalf("repeat serve: hits %v -> %v, want +1", hit0, got)
	}

	// 3. Small nudge: fresh key, but the retained candidates re-qualify —
	// no tree walk.
	req0 := metricValue(t, srv, "pm_rescache_requalified_total")
	fall0 = metricValue(t, srv, "pm_rescache_fallbacks_total")
	if err := sess.Nudge([]float64{0.505, 0.295, 0.2}); err != nil {
		t.Fatal(err)
	}
	check([]float64{0.505, 0.295, 0.2})
	if got := metricValue(t, srv, "pm_rescache_requalified_total"); got != req0+1 {
		t.Fatalf("1%% nudge: requalified %v -> %v, want +1", req0, got)
	}
	if got := metricValue(t, srv, "pm_rescache_fallbacks_total"); got != fall0 {
		t.Fatalf("1%% nudge walked the tree: fallbacks %v -> %v", fall0, got)
	}

	// 4. Large swing: the delta bound cannot be beaten, so the session
	// falls back to a walk.
	if err := sess.Nudge([]float64{0.2, 0.3, 0.5}); err != nil {
		t.Fatal(err)
	}
	check([]float64{0.2, 0.3, 0.5})
	if got := metricValue(t, srv, "pm_rescache_fallbacks_total"); got != fall0+1 {
		t.Fatalf("large nudge: fallbacks %v -> %v, want +1", fall0, got)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if open := metricValue(t, srv, "pm_sessions_open"); open != 0 {
		t.Fatalf("pm_sessions_open = %v after Close, want 0", open)
	}
}

// TestSessionCrossSessionCacheSharing pins that the result cache is shared
// across sessions: a second session asking the exact same (weights, k) at
// the same epoch is served from the cache the first session populated.
func TestSessionCrossSessionCacheSharing(t *testing.T) {
	const d, k = 3, 6
	objs := sessionObjects(1500, d, 85)
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.25, 0.25, 0.5}
	s1, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	hit0 := metricValue(t, srv, "pm_rescache_hits_total")
	s2, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("second session's cached answer differs from the first session's")
	}
	if metricValue(t, srv, "pm_rescache_hits_total") != hit0+1 {
		t.Fatal("second session did not hit the shared cache")
	}
}

// TestSessionMonotone pins monotone sessions to TopKMonotone, including the
// anonymous bare-Preference form, and that Nudge refuses them.
func TestSessionMonotone(t *testing.T) {
	const d = 3
	objs := serveObjects(900, d, 86)
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pq := prefmatch.PreferenceQuery{ID: 9, Preference: prefmatch.LinearPreference{Weights: []float64{0.2, 0.3, 0.5}}}
	sess, err := srv.OpenSession(pq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.TopKMonotone(pq, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("monotone session diverges from TopKMonotone")
	}
	if err := sess.Nudge([]float64{1, 1, 1}); err == nil {
		t.Fatal("Nudge on a monotone session did not error")
	}

	bare, err := srv.OpenSession(prefmatch.LinearPreference{Weights: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	got, err = bare.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err = srv.TopKMonotone(prefmatch.PreferenceQuery{ID: 0, Preference: prefmatch.LinearPreference{Weights: []float64{1, 2, 3}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bare-Preference session diverges from anonymous TopKMonotone")
	}
}

// TestSessionLifecycle covers the closed-session contract: idempotent
// Close, ErrSessionClosed from every method afterwards, Server.Close
// sweeping open sessions, and OpenSession refusing on a closed server.
func TestSessionLifecycle(t *testing.T) {
	const d = 2
	objs := serveObjects(200, d, 87)
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, err := sess.TopK(3); !errors.Is(err, prefmatch.ErrSessionClosed) {
		t.Fatalf("TopK after Close: %v, want ErrSessionClosed", err)
	}
	if err := sess.Nudge([]float64{1, 2}); !errors.Is(err, prefmatch.ErrSessionClosed) {
		t.Fatalf("Nudge after Close: %v, want ErrSessionClosed", err)
	}

	// Server.Close closes every open session and refuses new ones.
	open, err := srv.OpenSession(prefmatch.Query{ID: 2, Weights: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := open.TopK(3); !errors.Is(err, prefmatch.ErrSessionClosed) {
		t.Fatalf("TopK after server Close: %v, want ErrSessionClosed", err)
	}
	if _, err := srv.OpenSession(prefmatch.Query{ID: 3, Weights: []float64{1, 2}}); !errors.Is(err, prefmatch.ErrClosed) {
		t.Fatalf("OpenSession on closed server: %v, want ErrClosed", err)
	}
}

// TestSessionValidation covers the error surface: bad openings, bad nudges
// (which must leave the current weights untouched), and bad k.
func TestSessionValidation(t *testing.T) {
	const d = 2
	objs := serveObjects(300, d, 88)
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := srv.OpenSession(nil); err == nil {
		t.Fatal("OpenSession(nil) did not error")
	}
	if _, err := srv.OpenSession((*prefmatch.Query)(nil)); err == nil {
		t.Fatal("OpenSession((*Query)(nil)) did not error")
	}
	if _, err := srv.OpenSession((*prefmatch.PreferenceQuery)(nil)); err == nil {
		t.Fatal("OpenSession((*PreferenceQuery)(nil)) did not error")
	}
	if _, err := srv.OpenSession(prefmatch.PreferenceQuery{ID: 4}); err == nil {
		t.Fatal("OpenSession with nil inner preference did not error")
	}
	if _, err := srv.OpenSession(prefmatch.Query{ID: 5, Weights: []float64{1}}); err == nil {
		t.Fatal("OpenSession with wrong-dimension weights did not error")
	}
	if _, err := srv.OpenSession(prefmatch.Query{ID: 6, Weights: []float64{1, -1}}); err == nil {
		t.Fatal("OpenSession with a negative weight did not error")
	}

	sess, err := srv.OpenSession(prefmatch.Query{ID: 7, Weights: []float64{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Nudge([]float64{1, 2, 3}); err == nil {
		t.Fatal("Nudge with wrong dimension did not error")
	}
	if err := sess.Nudge([]float64{-1, 2}); err == nil {
		t.Fatal("Nudge with a negative weight did not error")
	}
	// Failed nudges must not have corrupted the working weights.
	got, err := sess.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("failed Nudge changed the session's answer")
	}
	if _, err := sess.TopK(-1); err == nil {
		t.Fatal("TopK(-1) did not error")
	}
	if got, err := sess.TopK(0); err != nil || len(got) != 0 {
		t.Fatalf("TopK(0) = %v, %v; want empty, nil", got, err)
	}
}

// TestSessionContextCancel pins that an already-canceled context fails the
// call before any serving work.
func TestSessionContextCancel(t *testing.T) {
	objs := serveObjects(300, 2, 89)
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := sess.TopKContext(ctx, 3); err == nil {
		t.Fatal("canceled context did not fail the session call")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := sess.TopKContext(ctx2, 3); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsValidateNamesField pins the exported validator: every
// rejection names the offending Options field, valid configurations (and
// nil) pass, and the documented non-rules stay legal.
func TestOptionsValidateNamesField(t *testing.T) {
	cases := []struct {
		opts  prefmatch.Options
		field string
	}{
		{prefmatch.Options{PageSize: -1}, "Options.PageSize"},
		{prefmatch.Options{BufferFraction: -0.5}, "Options.BufferFraction"},
		{prefmatch.Options{BufferPages: -2}, "Options.BufferPages"},
		{prefmatch.Options{Shards: -1}, "Options.Shards"},
		{prefmatch.Options{Shards: 100000}, "Options.Shards"},
		{prefmatch.Options{ShardBy: prefmatch.ShardBy(99), Shards: 2}, "Options.ShardBy"},
		{prefmatch.Options{ShardBy: prefmatch.ShardHash}, "Options.ShardBy"},
		{prefmatch.Options{MergeInterval: -time.Second}, "Options.MergeInterval"},
		{prefmatch.Options{SlowQueryThreshold: -time.Second}, "Options.SlowQueryThreshold"},
		{prefmatch.Options{MaxInFlight: -3}, "Options.MaxInFlight"},
		{prefmatch.Options{MaxQueueWait: -time.Second}, "Options.MaxQueueWait"},
		{prefmatch.Options{DrainTimeout: -time.Second}, "Options.DrainTimeout"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if err == nil {
			t.Fatalf("Validate(%+v) = nil, want error naming %s", c.opts, c.field)
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Fatalf("Validate error %q does not name %s", err, c.field)
		}
	}
	if err := (*prefmatch.Options)(nil).Validate(); err != nil {
		t.Fatalf("nil Options: %v", err)
	}
	if err := (&prefmatch.Options{}).Validate(); err != nil {
		t.Fatalf("zero Options: %v", err)
	}
	// Documented non-rules: negatives that mean "disabled", not "invalid".
	if err := (&prefmatch.Options{MergeThreshold: -1, ResultCacheEntries: -1}).Validate(); err != nil {
		t.Fatalf("disabling negatives rejected: %v", err)
	}
	// NewServer routes through Validate and surfaces the same error.
	if _, err := prefmatch.NewServer(serveObjects(10, 2, 1), &prefmatch.Options{Shards: -1}); err == nil || !strings.Contains(err.Error(), "Options.Shards") {
		t.Fatalf("NewServer bypassed Validate: %v", err)
	}
}
