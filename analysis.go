package prefmatch

import (
	"fmt"
	"sort"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// This file exposes the two query primitives underneath the matcher as
// stand-alone operations, because they are useful on their own: the skyline
// of an object set (the candidates that can win under *some* monotone
// preference) and the top-k objects for a single preference query.
//
// The package-level functions build a throwaway index per call (on any
// backend, so the paged one reports the paper's I/O); Server offers the
// same primitives against an index built once — skyline through the shared
// skylineOver below, top-k through its batch pipeline (server.go).

// skylineOver computes the sorted skyline IDs of an already-built index.
// The token is checked once before the computation starts — the skyline
// walk is one indivisible pass, so a request canceled mid-compute finishes
// its pass and is classified on return.
func skylineOver(tree index.ObjectIndex, tok cancel.Token, c *stats.Counters) ([]int, error) {
	if err := tok.Check("skyline.compute"); err != nil {
		return nil, err
	}
	m := skyline.New(tree, skyline.MaintainPlist, c)
	if err := m.Compute(); err != nil {
		return nil, err
	}
	out := make([]int, 0, m.Size())
	for _, s := range m.Skyline() {
		out = append(out, int(s.ID))
	}
	sort.Ints(out)
	return out, nil
}

// topkOver runs ranked search for a validated preference and k > 0 over a
// freshly built index, labelling results with the query ID.
func topkOver(tree index.ObjectIndex, qid int, p prefs.Preference, k int, c *stats.Counters) ([]Assignment, error) {
	rs, err := topk.Search(tree, p, k, c)
	if err != nil {
		return nil, err
	}
	out := make([]Assignment, len(rs))
	for i, r := range rs {
		out[i] = Assignment{QueryID: qid, ObjectID: int(r.ID), Score: r.Score}
	}
	return out, nil
}

// appendQuery validates a linear query against dimensionality d and
// normalises its weights onto arena (prefs.AppendFunction; a nil arena
// yields a fresh vector), returning the function and the extended arena.
// On error the arena comes back unchanged.
func appendQuery(arena vec.Point, q Query, d int) (prefs.Function, vec.Point, error) {
	f, ext, err := prefs.AppendFunction(arena, q.ID, q.Weights)
	if err != nil {
		return prefs.Function{}, arena, fmt.Errorf("prefmatch: query %d: %w", q.ID, err)
	}
	if f.Dim() != d {
		return prefs.Function{}, arena, fmt.Errorf("prefmatch: query %d has %d weights, want %d", q.ID, f.Dim(), d)
	}
	return f, ext, nil
}

// Skyline returns the IDs of the objects not dominated by any other object:
// for every non-skyline object there is a skyline object at least as good
// in every attribute and strictly better in one. The result is the complete
// set of objects that can be the top-1 of some monotone preference.
// IDs are returned in ascending order.
func Skyline(objects []Object, opts *Options) ([]int, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(objects) == 0 {
		return nil, nil
	}
	d, items, _, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return skylineOver(tree, cancel.Token{}, c)
}

// TopK returns the k best objects for a single query, best first, using
// branch-and-bound ranked search over a bulk-loaded R-tree. Fewer than k
// results are returned when the object set is smaller.
func TopK(objects []Object, query Query, k int, opts *Options) ([]Assignment, error) {
	if opts == nil {
		opts = &Options{}
	}
	if k < 0 {
		return nil, fmt.Errorf("prefmatch: negative k %d", k)
	}
	if len(objects) == 0 || k == 0 {
		return nil, nil
	}
	d, items, _, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	f, _, err := appendQuery(nil, query, d)
	if err != nil {
		return nil, err
	}
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return topkOver(tree, query.ID, f, k, c)
}

// TopKMonotone is TopK for an arbitrary monotone preference.
func TopKMonotone(objects []Object, query PreferenceQuery, k int, opts *Options) ([]Assignment, error) {
	if opts == nil {
		opts = &Options{}
	}
	if k < 0 {
		return nil, fmt.Errorf("prefmatch: negative k %d", k)
	}
	if query.Preference == nil {
		return nil, fmt.Errorf("prefmatch: preference query %d is nil", query.ID)
	}
	if len(objects) == 0 || k == 0 {
		return nil, nil
	}
	d, items, _, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return topkOver(tree, query.ID, prefAdapter{p: query.Preference}, k, c)
}

// Dominates reports whether object a dominates object b: at least as good
// in every attribute and strictly better in at least one.
func Dominates(a, b Object) bool {
	if len(a.Values) != len(b.Values) || len(a.Values) == 0 {
		return false
	}
	return vec.Point(a.Values).Dominates(vec.Point(b.Values))
}
