// Regression tests for public-API option/validation drift: MatchMonotone
// must not silently drop DisableTightThreshold, Verify must validate inputs
// exactly like Match, and Matcher must expose its emission count.
package prefmatch_test

import (
	"math"
	"strings"
	"testing"

	"prefmatch"
)

func TestMatchMonotoneRejectsDisableTightThreshold(t *testing.T) {
	objs := []prefmatch.Object{
		{ID: 1, Values: []float64{0.9, 0.1}},
		{ID: 2, Values: []float64{0.6, 0.6}},
	}
	qs := []prefmatch.PreferenceQuery{
		{ID: 5, Preference: prefmatch.LinearPreference{Weights: []float64{1, 1}}},
	}
	// The flag only exists for the linear TA engine; the generic engine has
	// no threshold to loosen, so the option must be rejected, not ignored.
	_, err := prefmatch.MatchMonotone(objs, qs, &prefmatch.Options{DisableTightThreshold: true})
	if err == nil {
		t.Fatal("DisableTightThreshold silently accepted by MatchMonotone")
	}
	if !strings.Contains(err.Error(), "DisableTightThreshold") {
		t.Fatalf("error does not name the rejected option: %v", err)
	}
	// Without the flag the same inputs still match.
	if _, err := prefmatch.MatchMonotone(objs, qs, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyMatchValidityAgreement feeds the same malformed inputs to Match
// and Verify: every input Match rejects, Verify must reject too (the seed
// behaviour accepted duplicate IDs, 32-bit IDs and ragged dimensions).
func TestVerifyMatchValidityAgreement(t *testing.T) {
	good := []prefmatch.Object{
		{ID: 1, Values: []float64{0.9, 0.1}},
		{ID: 2, Values: []float64{0.2, 0.8}},
	}
	goodQ := []prefmatch.Query{{ID: 1, Weights: []float64{1, 2}}}
	res, err := prefmatch.Match(good, goodQ, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		objs []prefmatch.Object
		qs   []prefmatch.Query
	}{
		{"no objects", nil, goodQ},
		{"no queries", good, nil},
		{"zero-dimensional objects", []prefmatch.Object{{ID: 1}, {ID: 2}}, goodQ},
		{"duplicate object IDs", []prefmatch.Object{
			{ID: 1, Values: []float64{0.9, 0.1}},
			{ID: 1, Values: []float64{0.2, 0.8}},
		}, goodQ},
		{"object ID out of 31-bit range", []prefmatch.Object{
			{ID: 1 << 31, Values: []float64{0.9, 0.1}},
			{ID: 2, Values: []float64{0.2, 0.8}},
		}, goodQ},
		{"negative object ID", []prefmatch.Object{
			{ID: -1, Values: []float64{0.9, 0.1}},
			{ID: 2, Values: []float64{0.2, 0.8}},
		}, goodQ},
		{"ragged object dimensions", []prefmatch.Object{
			{ID: 1, Values: []float64{0.9, 0.1}},
			{ID: 2, Values: []float64{0.2, 0.8, 0.5}},
		}, goodQ},
		{"negative capacity", []prefmatch.Object{
			{ID: 1, Values: []float64{0.9, 0.1}, Capacity: -2},
			{ID: 2, Values: []float64{0.2, 0.8}},
		}, goodQ},
		{"query dimension mismatch", good, []prefmatch.Query{{ID: 1, Weights: []float64{1, 2, 3}}}},
		{"negative query weight", good, []prefmatch.Query{{ID: 1, Weights: []float64{1, -2}}}},
		{"all-zero query weights", good, []prefmatch.Query{{ID: 1, Weights: []float64{0, 0}}}},
		{"duplicate query IDs", good, []prefmatch.Query{
			{ID: 1, Weights: []float64{1, 2}},
			{ID: 1, Weights: []float64{2, 1}},
		}},
	}
	for _, tc := range cases {
		if _, err := prefmatch.Match(tc.objs, tc.qs, nil); err == nil {
			t.Errorf("%s: accepted by Match", tc.name)
		}
		if err := prefmatch.Verify(tc.objs, tc.qs, res.Assignments); err == nil {
			t.Errorf("%s: rejected by Match but accepted by Verify", tc.name)
		}
	}

	// And the valid input stays valid end to end.
	if err := prefmatch.Verify(good, goodQ, res.Assignments); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
}

func TestMatcherEmitted(t *testing.T) {
	objs := []prefmatch.Object{
		{ID: 1, Values: []float64{0.9, 0.1}},
		{ID: 2, Values: []float64{0.2, 0.8}},
		{ID: 3, Values: []float64{0.5, 0.5}},
	}
	qs := []prefmatch.Query{
		{ID: 1, Weights: []float64{1, 2}},
		{ID: 2, Weights: []float64{2, 1}},
	}
	m, err := prefmatch.NewMatcher(objs, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Emitted() != 0 {
		t.Fatalf("Emitted() = %d before first Next", m.Emitted())
	}
	n := int64(0)
	for {
		_, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
		if m.Emitted() != n {
			t.Fatalf("Emitted() = %d after %d assignments", m.Emitted(), n)
		}
	}
	if n != 2 {
		t.Fatalf("drained %d assignments, want 2", n)
	}
	if m.Emitted() != 2 {
		t.Fatalf("Emitted() = %d after drain", m.Emitted())
	}
}

// TestObjectSetReportsFirstFault pins which error a faulty object set
// reports: the first fault in input order, where an object's own checks
// (dimension, ID range, capacity, finite values) come before the test for
// an ID that an earlier object already has.
func TestObjectSetReportsFirstFault(t *testing.T) {
	nan := math.NaN()
	set := func(ids ...int) []prefmatch.Object {
		objs := make([]prefmatch.Object, len(ids))
		for i, id := range ids {
			objs[i] = prefmatch.Object{ID: id, Values: []float64{float64(i), 1}}
		}
		return objs
	}
	with := func(objs []prefmatch.Object, i int, f func(*prefmatch.Object)) []prefmatch.Object {
		f(&objs[i])
		return objs
	}
	setNaN := func(o *prefmatch.Object) { o.Values = []float64{nan, 1} }
	cases := []struct {
		name string
		objs []prefmatch.Object
		want string
	}{
		{"duplicate at 3, NaN at 5", with(set(10, 11, 12, 11, 14, 15), 5, setNaN),
			"prefmatch: duplicate object ID 11"},
		{"NaN at 3, duplicate at 5", with(set(10, 11, 12, 13, 14, 11), 3, setNaN),
			"prefmatch: object 13 attribute 0 is NaN, want a finite value"},
		{"two duplicate IDs, the later one repeated first", set(9, 7, 3, 7, 9),
			"prefmatch: duplicate object ID 7"},
		{"NaN on the duplicate itself", with(set(1, 2, 3, 1), 3, setNaN),
			"prefmatch: object 1 attribute 0 is NaN, want a finite value"},
		{"ID out of range at 2, duplicate at 4", set(1, 2, 1<<31, 3, 1),
			"prefmatch: object ID 2147483648 out of range"},
		{"duplicate at 1, ragged at 2", with(set(4, 4, 5), 2, func(o *prefmatch.Object) { o.Values = []float64{1} }),
			"prefmatch: duplicate object ID 4"},
		{"negative capacity at 0, duplicate at 1", with(set(4, 4), 0, func(o *prefmatch.Object) { o.Capacity = -1 }),
			"prefmatch: object 4 has negative capacity -1"},
	}
	for _, tc := range cases {
		_, err := prefmatch.NewServer(tc.objs, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: NewServer error %v, want %q", tc.name, err, tc.want)
		}
	}
}
