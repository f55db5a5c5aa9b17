// Weights are normalised to sum to 1, so one preference written at two
// scales must rank objects identically on every entry point, including
// when the raw weights are finite but their sum overflows float64.
package prefmatch_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"prefmatch"
)

func TestOverflowingWeightSumsRankLikeSmallWeights(t *testing.T) {
	const (
		d = 4
		k = 10
	)
	objs := serveObjects(400, d, 311)
	small := []float64{1.5, 1.25, 0.75, 0.5}
	huge := make([]float64, d)
	for i, w := range small {
		huge[i] = math.Ldexp(w, 1023) // each finite; the sum overflows
	}
	sq := prefmatch.Query{ID: 1, Weights: small}
	hq := prefmatch.Query{ID: 1, Weights: huge}
	others := serveQueries(8, d, 312)
	for i := range others {
		others[i].ID += 100
	}
	wave := func(q prefmatch.Query) []prefmatch.Query { return append([]prefmatch.Query{q}, others...) }

	for _, cfg := range []struct {
		name string
		opts prefmatch.Options
	}{
		{"memory", prefmatch.Options{Backend: prefmatch.Memory}},
		{"dynamic", prefmatch.Options{Backend: prefmatch.Dynamic}},
		{"memory/3 shards", prefmatch.Options{Backend: prefmatch.Memory, Shards: 3}},
	} {
		srv, err := prefmatch.NewServer(objs, &cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, want, got any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: huge weights answer\n%v\nwant (small weights)\n%v", cfg.name, what, got, want)
			}
		}

		want, err := srv.TopK(sq, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != k || want[0].Score <= 0 {
			t.Fatalf("degenerate reference ranking %v", want)
		}
		got, err := srv.TopK(hq, k)
		if err != nil {
			t.Fatal(err)
		}
		same("TopK", want, got)

		wantFlat, wantOffs, err := srv.TopKManyAppend(nil, nil, wave(sq), k)
		if err != nil {
			t.Fatal(err)
		}
		gotFlat, gotOffs, err := srv.TopKManyAppend(nil, nil, wave(hq), k)
		if err != nil {
			t.Fatal(err)
		}
		same("TopKManyAppend", wantFlat, gotFlat)
		same("TopKManyAppend offsets", wantOffs, gotOffs)

		wantRes, err := srv.Match(wave(sq), nil)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := srv.Match(wave(hq), nil)
		if err != nil {
			t.Fatal(err)
		}
		same("Server.Match", wantRes.Assignments, gotRes.Assignments)

		sess, err := srv.OpenSession(prefmatch.Query{ID: 1, Weights: others[0].Weights})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.TopK(k); err != nil {
			t.Fatal(err)
		}
		if err := sess.Nudge(huge); err != nil {
			t.Fatal(err)
		}
		gotSess, err := sess.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		same("Session.Nudge+TopK", want, gotSess)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	wantRes, err := prefmatch.Match(objs, wave(sq), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := prefmatch.Match(objs, wave(hq), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes.Assignments, wantRes.Assignments) {
		t.Fatalf("Match: huge weights answer\n%v\nwant (small weights)\n%v", gotRes.Assignments, wantRes.Assignments)
	}
}

// The weights {1.5e308, 3e307} are the preference {1.5, 0.3} at a scale
// where their sum overflows: object 2 ranks first either way.
func TestOverflowingWeightSumTopKOrder(t *testing.T) {
	objs := []prefmatch.Object{
		{ID: 1, Values: []float64{1, 2}},
		{ID: 2, Values: []float64{2, 1}},
	}
	srv, err := prefmatch.NewServer(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{{1.5, 0.3}, {1.5e308, 3e307}} {
		got, err := srv.TopK(prefmatch.Query{ID: 1, Weights: w}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].ObjectID != 2 || math.Abs(got[0].Score-11.0/6) > 1e-12 {
			t.Fatalf("weights %v: top-1 is object %d scoring %v, want object 2 scoring 11/6", w, got[0].ObjectID, got[0].Score)
		}
	}
}

// LinearPreference scores with raw weights, which it scales down by a power
// of two when their sum overflows. {1.5e308, 3e307} is {1.5, 0.3} at such
// a scale, so TopKMonotone and MatchMonotone must rank and match as the
// small weights do, with finite scores, where +Inf scores would leave every
// decision to the tie-break. Weights 2^1023 times the small ones scale
// exactly, so their rankings tie where the small ones tie.
func TestOverflowingLinearPreferenceRanksLikeSmallWeights(t *testing.T) {
	ids := func(as []prefmatch.Assignment) [][2]int {
		out := make([][2]int, len(as))
		for i, a := range as {
			if math.IsInf(a.Score, 0) || math.IsNaN(a.Score) {
				t.Fatalf("assignment %+v has a non-finite score", a)
			}
			out[i] = [2]int{a.QueryID, a.ObjectID}
		}
		return out
	}
	pair := []prefmatch.Object{
		{ID: 1, Values: []float64{1, 2}},
		{ID: 2, Values: []float64{2, 1}},
	}
	ldexp := func(ws []float64) []float64 {
		out := make([]float64, len(ws))
		for i, w := range ws {
			out[i] = math.Ldexp(w, 1023)
		}
		return out
	}
	small := []float64{1.5, 1.25, 0.75, 0.5}
	for _, tc := range []struct {
		name        string
		objs        []prefmatch.Object
		small, huge []float64
	}{
		{"two objects", pair, []float64{1.5, 0.3}, []float64{1.5e308, 3e307}},
		{"400 objects", serveObjects(400, 4, 313), small, ldexp(small)},
	} {
		srv, err := prefmatch.NewServer(tc.objs, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := min(10, len(tc.objs))
		want, err := srv.TopKMonotone(prefmatch.PreferenceQuery{ID: 1, Preference: prefmatch.LinearPreference{Weights: tc.small}}, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.TopKMonotone(prefmatch.PreferenceQuery{ID: 1, Preference: prefmatch.LinearPreference{Weights: tc.huge}}, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids(got), ids(want)) {
			t.Fatalf("%s: TopKMonotone ranks %v with huge weights, want %v", tc.name, ids(got), ids(want))
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}

		// A wave of the preference, its mirror image and three small
		// preferences; the matching must not depend on the scale.
		wave := func(w []float64) []prefmatch.PreferenceQuery {
			mirror := append([]float64(nil), w...)
			slices.Reverse(mirror)
			qs := []prefmatch.PreferenceQuery{
				{ID: 1, Preference: prefmatch.LinearPreference{Weights: w}},
				{ID: 2, Preference: prefmatch.LinearPreference{Weights: mirror}},
			}
			for i, q := range serveQueries(3, len(w), 314) {
				qs = append(qs, prefmatch.PreferenceQuery{ID: 10 + i, Preference: prefmatch.LinearPreference{Weights: q.Weights}})
			}
			return qs
		}
		for _, alg := range []prefmatch.Algorithm{prefmatch.SkylineBased, prefmatch.BruteForce} {
			opts := &prefmatch.Options{Algorithm: alg}
			wantRes, err := prefmatch.MatchMonotone(tc.objs, wave(tc.small), opts)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := prefmatch.MatchMonotone(tc.objs, wave(tc.huge), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids(gotRes.Assignments), ids(wantRes.Assignments)) {
				t.Fatalf("%s %v: MatchMonotone pairs %v with huge weights, want %v", tc.name, alg, ids(gotRes.Assignments), ids(wantRes.Assignments))
			}
		}
	}
	if got := (prefmatch.LinearPreference{Weights: []float64{1.5e308, 3e307}}).Score([]float64{2, 1}); math.IsInf(got, 0) || got <= 0 {
		t.Fatalf("LinearPreference.Score = %v, want a finite positive score", got)
	}
}
