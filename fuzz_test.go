package prefmatch

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"prefmatch/internal/prefs"
)

// fuzzBytes hands out the body of a fuzz input D bytes at a time, as
// quantised objects and queries. Coordinates are quantised to eighths and
// weights to {0,1,2,3}, so equal scores, equal sums and duplicate points are
// common — the inputs where tie-breaking and the skyline's dominance
// shortcuts can go wrong.
type fuzzBytes struct {
	rest []byte
	d    int
}

func (r *fuzzBytes) take() ([]byte, bool) {
	if len(r.rest) < r.d {
		return nil, false
	}
	b := r.rest[:r.d]
	r.rest = r.rest[r.d:]
	return b, true
}

// values decodes the next D bytes as an object's attributes.
func (r *fuzzBytes) values() ([]float64, bool) {
	b, ok := r.take()
	if !ok {
		return nil, false
	}
	vals := make([]float64, r.d)
	for j, v := range b {
		vals[j] = float64(v%8) / 7
	}
	return vals, true
}

// objects decodes up to n objects with IDs 0, 1, ...
func (r *fuzzBytes) objects(n int) []Object {
	var objs []Object
	for len(objs) < n {
		vals, ok := r.values()
		if !ok {
			break
		}
		objs = append(objs, Object{ID: len(objs), Values: vals})
	}
	return objs
}

// updates decodes up to n updates of objs: one byte choosing the object,
// then D values.
func (r *fuzzBytes) updates(objs []Object, n int) []Object {
	var ups []Object
	for ; n > 0 && len(r.rest) > 0; n-- {
		o := objs[int(r.rest[0])%len(objs)]
		r.rest = r.rest[1:]
		vals, ok := r.values()
		if !ok {
			break
		}
		ups = append(ups, Object{ID: o.ID, Values: vals})
	}
	return ups
}

// queries decodes up to n queries with IDs 0, 1, ...; an all-zero weight
// draw puts weight 1 on one attribute.
func (r *fuzzBytes) queries(n int) []Query {
	var qs []Query
	for len(qs) < n {
		b, ok := r.take()
		if !ok {
			break
		}
		w := make([]float64, r.d)
		sum := 0.0
		for j, v := range b {
			w[j] = float64(v % 4)
			sum += w[j]
		}
		if sum == 0 {
			w[int(b[0])%r.d] = 1
		}
		qs = append(qs, Query{ID: len(qs), Weights: w})
	}
	return qs
}

// decodeMatchInput turns fuzz bytes into a small matching instance: byte 0
// picks D ∈ {2,3,4}, bytes 1 and 2 cap the object and function counts at 64
// and 16, and the rest are consumed D at a time, objects first, then
// functions. Up to 8 updates for the Dynamic servers follow (one byte
// choosing the object, then D values); an input that ends with the
// functions has none. ok is false when the bytes do not describe at least
// one object and one function.
func decodeMatchInput(data []byte) (objs []Object, qs []Query, updates []Object, ok bool) {
	if len(data) < 3 {
		return nil, nil, nil, false
	}
	r := &fuzzBytes{rest: data[3:], d: 2 + int(data[0]%3)}
	objs = r.objects(1 + int(data[1]%64))
	qs = r.queries(1 + int(data[2]%16))
	if len(objs) == 0 || len(qs) == 0 {
		return nil, nil, nil, false
	}
	return objs, qs, r.updates(objs, 8), true
}

// matchingKey renders a matching order-independently, scores bit for bit.
func matchingKey(as []Assignment) string {
	as = append([]Assignment(nil), as...)
	sort.Slice(as, func(i, j int) bool { return as[i].QueryID < as[j].QueryID })
	key := ""
	for _, a := range as {
		key += fmt.Sprintf("%d:%d:%x ", a.QueryID, a.ObjectID, math.Float64bits(a.Score))
	}
	return key
}

// FuzzMatchAlgorithmsAgree checks that every matcher configuration returns
// the same stable matching: SB under each skyline maintenance mode and
// both TA thresholds, Brute Force, Brute Force Incremental and Chain.
// Verify must accept every emission sequence. MatchMonotone under SB, Brute
// Force and Brute Force Incremental, over each query's normalised weights
// as a LinearPreference, must return the same matching bit for bit, which
// checks SB's reverse-top-1 scan against TA on tie-heavy inputs.
// Server.Match must then return one-shot SB's matching bit for bit, in
// emission order, on four servers: Memory, Memory in 3 spatial shards, and
// Dynamic whole and in 3 shards, both after the decoded updates (compared
// with one-shot SB over the updated objects). The seed corpus lives in
// testdata/fuzz.
func FuzzMatchAlgorithmsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, qs, updates, ok := decodeMatchInput(data)
		if !ok {
			t.Skip()
		}
		type config struct {
			name string
			opts Options
		}
		configs := []config{
			{"bf", Options{Algorithm: BruteForce}},
			{"bfinc", Options{Algorithm: BruteForceIncremental}},
			{"chain", Options{Algorithm: Chain}},
		}
		for _, mode := range []MaintenanceMode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
			for _, naive := range []bool{false, true} {
				name := fmt.Sprintf("sb/mode%d/naive=%v", mode, naive)
				configs = append(configs, config{name, Options{Maintenance: mode, DisableTightThreshold: naive}})
			}
		}
		var want string
		for i, cfg := range configs {
			res, err := Match(objs, qs, &cfg.opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			if err := Verify(objs, qs, res.Assignments); err != nil {
				t.Fatalf("%s: Verify rejected the matching: %v", cfg.name, err)
			}
			got := matchingKey(res.Assignments)
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s disagrees with %s:\n got %s\nwant %s", cfg.name, configs[0].name, got, want)
			}
		}

		// LinearPreference.Score sums in Function.Score's order, so over the
		// normalised weights every score is bit-identical to Match's.
		pqs := make([]PreferenceQuery, len(qs))
		for i, q := range qs {
			f, err := prefs.NewFunction(q.ID, q.Weights)
			if err != nil {
				t.Fatal(err)
			}
			pqs[i] = PreferenceQuery{ID: q.ID, Preference: LinearPreference{Weights: f.Weights}}
		}
		for _, alg := range []Algorithm{SkylineBased, BruteForce, BruteForceIncremental} {
			res, err := MatchMonotone(objs, pqs, &Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("monotone %v: %v", alg, err)
			}
			if got := matchingKey(res.Assignments); got != want {
				t.Fatalf("monotone %v disagrees with %s:\n got %s\nwant %s", alg, configs[0].name, got, want)
			}
		}

		updated := append([]Object(nil), objs...)
		for _, u := range updates {
			updated[u.ID] = u
		}
		servers := []struct {
			name    string
			opts    Options
			updates []Object
			objs    []Object
		}{
			{"server/memory", Options{Backend: Memory}, nil, objs},
			{"server/memory/3 spatial shards", Options{Backend: Memory, Shards: 3, ShardBy: ShardSpatial}, nil, objs},
			{"server/dynamic", Options{Backend: Dynamic}, updates, updated},
			{"server/dynamic/3 shards", Options{Backend: Dynamic, Shards: 3}, updates, updated},
		}
		for _, cfg := range servers {
			want, err := Match(cfg.objs, qs, nil)
			if err != nil {
				t.Fatalf("%s: one-shot SB: %v", cfg.name, err)
			}
			srv, err := NewServer(objs, &cfg.opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			for _, u := range cfg.updates {
				if err := srv.Update(u); err != nil {
					t.Fatalf("%s: update %d: %v", cfg.name, u.ID, err)
				}
			}
			res, err := srv.Match(qs, nil)
			if err != nil {
				t.Fatalf("%s: Match: %v", cfg.name, err)
			}
			if !sameRanking(res.Assignments, want.Assignments) {
				t.Fatalf("%s: Server.Match differs from one-shot SB:\n got %v\nwant %v", cfg.name, res.Assignments, want.Assignments)
			}
			if err := Verify(cfg.objs, qs, res.Assignments); err != nil {
				t.Fatalf("%s: Verify rejected the matching: %v", cfg.name, err)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", cfg.name, err)
			}
		}
	})
}

// topKInput is one decoded FuzzTopKAgreesWithOracle instance: the objects
// every server is built from, the queries, k, and the updates applied to
// the Dynamic server only.
type topKInput struct {
	objs    []Object
	qs      []Query
	k       int
	updates []Object
}

// decodeTopKInput turns fuzz bytes into a top-k instance: byte 0 picks
// D ∈ {2,3,4}, bytes 1 and 2 cap the object and query counts at 256 and 80
// (more than the 64 functions one batch traversal serves), byte 3 picks
// k ∈ 0..12 and byte 4 caps the updates at 7. The rest is consumed D bytes
// at a time: objects, then queries, then updates (one byte choosing the
// object, then D values). ok is false when the bytes do not describe at
// least one object and one query.
func decodeTopKInput(data []byte) (in topKInput, ok bool) {
	if len(data) < 5 {
		return in, false
	}
	r := &fuzzBytes{rest: data[5:], d: 2 + int(data[0]%3)}
	in.objs = r.objects(1 + int(data[1]))
	in.qs = r.queries(1 + int(data[2]%80))
	in.k = int(data[3] % 13)
	if len(in.objs) == 0 || len(in.qs) == 0 {
		return in, false
	}
	in.updates = r.updates(in.objs, int(data[4]%8))
	return in, true
}

// oracleTopK is the brute-force reference for top-k, sharing no code with
// the index or the search: it normalises the weights as prefs.NewFunction
// does, scores every object with an ascending-index dot product, and orders
// by score, then coordinate sum, then ID (the order of topk.Better).
func oracleTopK(objs []Object, q Query, k int) []Assignment {
	total := 0.0
	for _, w := range q.Weights {
		total += w
	}
	type scored struct {
		id         int
		score, sum float64
	}
	all := make([]scored, len(objs))
	for i, o := range objs {
		s := scored{id: o.ID}
		for j, v := range o.Values {
			s.score += q.Weights[j] / total * v
			s.sum += v
		}
		all[i] = s
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.sum != b.sum {
			return a.sum > b.sum
		}
		return a.id < b.id
	})
	out := make([]Assignment, 0, min(k, len(all)))
	for _, s := range all[:min(k, len(all))] {
		out = append(out, Assignment{QueryID: q.ID, ObjectID: s.id, Score: s.score})
	}
	return out
}

// sameRanking reports whether two rankings (or matchings in emission order)
// agree entry for entry, scores bit for bit.
func sameRanking(got, want []Assignment) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].QueryID != want[i].QueryID || got[i].ObjectID != want[i].ObjectID ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// FuzzTopKAgreesWithOracle checks batched and single top-k against the
// brute-force oracle on three serving configurations: Memory, Dynamic after
// the decoded updates, and Memory split into 3 shards. TopKManyAppend,
// TopKMany with 1 and 3 workers, and every query's TopK must match the
// oracle bit for bit. The seed corpus lives in testdata/fuzz.
func FuzzTopKAgreesWithOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeTopKInput(data)
		if !ok {
			t.Skip()
		}
		updated := append([]Object(nil), in.objs...)
		for _, u := range in.updates {
			updated[u.ID] = u
		}
		configs := []struct {
			name    string
			opts    Options
			updates []Object
			objs    []Object
		}{
			{"memory", Options{Backend: Memory}, nil, in.objs},
			{"dynamic", Options{Backend: Dynamic}, in.updates, updated},
			{"memory/3 shards", Options{Backend: Memory, Shards: 3}, nil, in.objs},
		}
		for _, cfg := range configs {
			srv, err := NewServer(in.objs, &cfg.opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			for _, u := range cfg.updates {
				if err := srv.Update(u); err != nil {
					t.Fatalf("%s: update %d: %v", cfg.name, u.ID, err)
				}
			}
			flat, offs, err := srv.TopKManyAppend(nil, nil, in.qs, in.k)
			if err != nil {
				t.Fatalf("%s: TopKManyAppend: %v", cfg.name, err)
			}
			many := map[int][][]Assignment{}
			for _, w := range []int{1, 3} {
				if many[w], err = srv.TopKMany(in.qs, in.k, w); err != nil {
					t.Fatalf("%s: TopKMany workers=%d: %v", cfg.name, w, err)
				}
			}
			for i, q := range in.qs {
				want := oracleTopK(cfg.objs, q, in.k)
				if got := flat[offs[i]:offs[i+1]]; !sameRanking(got, want) {
					t.Fatalf("%s: TopKManyAppend query %d (k=%d):\n got %v\nwant %v", cfg.name, i, in.k, got, want)
				}
				for w, sliced := range many {
					if got := sliced[i]; !sameRanking(got, want) {
						t.Fatalf("%s: TopKMany workers=%d query %d (k=%d):\n got %v\nwant %v", cfg.name, w, i, in.k, got, want)
					}
				}
				got, err := srv.TopK(q, in.k)
				if err != nil {
					t.Fatalf("%s: TopK query %d: %v", cfg.name, i, err)
				}
				if !sameRanking(got, want) {
					t.Fatalf("%s: TopK query %d (k=%d):\n got %v\nwant %v", cfg.name, i, in.k, got, want)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", cfg.name, err)
			}
		}
	})
}

// sessionInput is one decoded FuzzSessionAgreesWithOracle instance: the
// objects every server is built from, the session's opening weights, the
// steps that revise it, and k.
type sessionInput struct {
	objs    []Object
	weights []float64
	steps   []sessionStep
	k       int
}

// sessionStep is one revision before a TopK: the session's next raw
// weights (unchanged for a repeat), and an update that only the Dynamic
// servers apply.
type sessionStep struct {
	weights []float64
	update  *Object
}

// decodeSessionInput turns fuzz bytes into a session instance: byte 0
// picks D ∈ {2,3,4}, bytes 1 and 2 cap the object and step counts at 256
// and 32, and byte 3 picks k ∈ 0..12. The rest is consumed as objects
// (D bytes each), the opening weights (D bytes), then steps of one op byte
// each: op%4 = 0 takes D bytes of fresh quantised weights, 1 nudges weight
// (op/4)%D by 1e-3 (down when bit 4 is set and the weight allows it, so
// re-qualification fires), 2 repeats (so the cache hits), and 3 repeats
// after an update (one byte choosing the object, then D values). ok is
// false when the bytes do not describe at least one object and the
// opening weights.
func decodeSessionInput(data []byte) (in sessionInput, ok bool) {
	if len(data) < 4 {
		return in, false
	}
	r := &fuzzBytes{rest: data[4:], d: 2 + int(data[0]%3)}
	in.objs = r.objects(1 + int(data[1]))
	in.k = int(data[3] % 13)
	open := r.queries(1)
	if len(in.objs) == 0 || len(open) == 0 {
		return in, false
	}
	w := open[0].Weights
	in.weights = w
	for n := 1 + int(data[2]%32); n > 0 && len(r.rest) > 0; n-- {
		op := r.rest[0]
		r.rest = r.rest[1:]
		step := sessionStep{}
		switch op % 4 {
		case 0:
			qs := r.queries(1)
			if len(qs) == 0 {
				return in, true
			}
			w = qs[0].Weights
		case 1:
			w = append([]float64(nil), w...)
			j := int(op/4) % r.d
			if op&16 != 0 && w[j] >= 1e-3 {
				w[j] -= 1e-3
			} else {
				w[j] += 1e-3
			}
		case 3:
			if len(r.rest) == 0 {
				return in, true
			}
			o := in.objs[int(r.rest[0])%len(in.objs)]
			r.rest = r.rest[1:]
			vals, more := r.values()
			if !more {
				return in, true
			}
			step.update = &Object{ID: o.ID, Values: vals}
		}
		step.weights = w
		in.steps = append(in.steps, step)
	}
	return in, true
}

// FuzzSessionAgreesWithOracle checks preference sessions against the
// brute-force oracle on three serving configurations: Memory, Dynamic with
// the decoded updates interleaved between steps, and Dynamic split into 3
// shards with the same updates. After the opening and after every step,
// Session.TopK and a cold Server.TopK with the session's current weights
// must both match the oracle over a mirror of the live set, bit for bit,
// whichever path — cache hit, re-qualification or walk — served the
// session. The seed corpus lives in testdata/fuzz.
func FuzzSessionAgreesWithOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeSessionInput(data)
		if !ok {
			t.Skip()
		}
		configs := []struct {
			name    string
			opts    Options
			updates bool
		}{
			{"memory", Options{Backend: Memory}, false},
			{"dynamic", Options{Backend: Dynamic}, true},
			{"dynamic/3 shards", Options{Backend: Dynamic, Shards: 3}, true},
		}
		for _, cfg := range configs {
			srv, err := NewServer(in.objs, &cfg.opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			live := append([]Object(nil), in.objs...)
			q := Query{ID: 7, Weights: in.weights}
			sess, err := srv.OpenSession(q)
			if err != nil {
				t.Fatalf("%s: OpenSession: %v", cfg.name, err)
			}
			check := func(step int) {
				want := oracleTopK(live, q, in.k)
				got, err := sess.TopK(in.k)
				if err != nil {
					t.Fatalf("%s step %d: Session.TopK: %v", cfg.name, step, err)
				}
				if !sameRanking(got, want) {
					t.Fatalf("%s step %d: Session.TopK (k=%d, weights %v):\n got %v\nwant %v", cfg.name, step, in.k, q.Weights, got, want)
				}
				cold, err := srv.TopK(q, in.k)
				if err != nil {
					t.Fatalf("%s step %d: TopK: %v", cfg.name, step, err)
				}
				if !sameRanking(cold, want) {
					t.Fatalf("%s step %d: cold TopK (k=%d, weights %v):\n got %v\nwant %v", cfg.name, step, in.k, q.Weights, cold, want)
				}
			}
			check(-1)
			for i, st := range in.steps {
				if st.update != nil && cfg.updates {
					if err := srv.Update(*st.update); err != nil {
						t.Fatalf("%s step %d: update %d: %v", cfg.name, i, st.update.ID, err)
					}
					live[st.update.ID] = *st.update
				}
				q.Weights = st.weights
				if err := sess.Nudge(q.Weights); err != nil {
					t.Fatalf("%s step %d: Nudge(%v): %v", cfg.name, i, q.Weights, err)
				}
				check(i)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", cfg.name, err)
			}
		}
	})
}

// skylineWrite is one write the Dynamic server of FuzzSkylineAgreesWithOracle
// applies: an insert of a new ID, an update, or a remove (values unused).
type skylineWrite struct {
	op  byte // writeInsert, writeUpdate or writeRemove
	obj Object
}

const (
	writeInsert byte = iota
	writeUpdate
	writeRemove
)

// decodeSkylineInput turns fuzz bytes into a skyline instance: byte 0 picks
// D ∈ {2,3,4}, bytes 1 and 2 cap the object and write counts at 256 and
// 16, and the rest is consumed as objects (D bytes each), then writes of
// two bytes plus D values: op%3 picks insert (the next unused ID), update
// or remove, and the second byte picks the live object an update or remove
// targets. A write with no live object to target inserts. ok is false when
// the bytes do not describe at least one object.
func decodeSkylineInput(data []byte) (objs []Object, writes []skylineWrite, ok bool) {
	if len(data) < 3 {
		return nil, nil, false
	}
	r := &fuzzBytes{rest: data[3:], d: 2 + int(data[0]%3)}
	objs = r.objects(1 + int(data[1]))
	if len(objs) == 0 {
		return nil, nil, false
	}
	live := make([]int, len(objs))
	for i := range live {
		live[i] = i
	}
	for n := int(data[2] % 17); n > 0 && len(r.rest) >= 2; n-- {
		op, pick := r.rest[0]%3, int(r.rest[1])
		r.rest = r.rest[2:]
		vals, more := r.values()
		if !more {
			break
		}
		if len(live) == 0 {
			op = writeInsert
		}
		w := skylineWrite{op: op, obj: Object{Values: vals}}
		switch op {
		case writeInsert:
			w.obj.ID = len(objs) + len(writes)
			live = append(live, w.obj.ID)
		default:
			i := pick % len(live)
			w.obj.ID = live[i]
			if op == writeRemove {
				live = append(live[:i], live[i+1:]...)
			}
		}
		writes = append(writes, w)
	}
	return objs, writes, true
}

// oracleSkyline is the brute-force reference for the skyline, sharing no
// code with the index: Chomicki's winnow under Pareto preference, O(n²). An
// object is kept unless another is at least as good in every attribute and
// better in one, so duplicate points do not dominate each other. IDs come
// back ascending, as Skyline returns them.
func oracleSkyline(objs []Object) []int {
	var out []int
	for _, o := range objs {
		dominated := false
		for _, q := range objs {
			ge, gt := true, false
			for j, v := range q.Values {
				ge = ge && v >= o.Values[j]
				gt = gt || v > o.Values[j]
			}
			dominated = dominated || (ge && gt)
		}
		if !dominated {
			out = append(out, o.ID)
		}
	}
	sort.Ints(out)
	return out
}

// FuzzSkylineAgreesWithOracle checks every skyline path against
// oracleSkyline: one-shot Skyline on the paged backend, whole and in 3
// shards; Server.Skyline on Memory and on 1, 3 and 7 spatial shards; and
// Server.Skyline on Dynamic before and after every one of the decoded
// inserts, updates and removes, against the oracle over a mirror of the
// live set. The seed corpus lives in testdata/fuzz.
func FuzzSkylineAgreesWithOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, writes, ok := decodeSkylineInput(data)
		if !ok {
			t.Skip()
		}
		want := oracleSkyline(objs)
		for _, opts := range []Options{{}, {Shards: 3}} {
			got, err := Skyline(objs, &opts)
			if err != nil {
				t.Fatalf("paged shards=%d: Skyline: %v", opts.Shards, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("paged shards=%d: Skyline = %v, want %v", opts.Shards, got, want)
			}
		}
		for _, opts := range []Options{
			{Backend: Memory},
			{Shards: 1, ShardBy: ShardSpatial},
			{Shards: 3, ShardBy: ShardSpatial},
			{Shards: 7, ShardBy: ShardSpatial},
		} {
			srv, err := NewServer(objs, &opts)
			if err != nil {
				t.Fatalf("memory shards=%d: %v", opts.Shards, err)
			}
			got, err := srv.Skyline()
			if err != nil {
				t.Fatalf("memory shards=%d: Server.Skyline: %v", opts.Shards, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("memory shards=%d: Server.Skyline = %v, want %v", opts.Shards, got, want)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("memory shards=%d: Close: %v", opts.Shards, err)
			}
		}

		srv, err := NewServer(objs, &Options{Backend: Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		live := append([]Object(nil), objs...)
		check := func(step int) {
			got, err := srv.Skyline()
			if err != nil {
				t.Fatalf("dynamic after write %d: Server.Skyline: %v", step, err)
			}
			if want := oracleSkyline(live); !slices.Equal(got, want) {
				t.Fatalf("dynamic after write %d: Server.Skyline = %v, want %v", step, got, want)
			}
		}
		check(-1)
		for i, w := range writes {
			at := slices.IndexFunc(live, func(o Object) bool { return o.ID == w.obj.ID })
			switch w.op {
			case writeInsert:
				err = srv.Insert(w.obj)
				live = append(live, w.obj)
			case writeUpdate:
				err = srv.Update(w.obj)
				live[at] = w.obj
			case writeRemove:
				err = srv.Remove(w.obj.ID)
				live = slices.Delete(live, at, at+1)
			}
			if err != nil {
				t.Fatalf("dynamic write %d (op %d, object %d): %v", i, w.op, w.obj.ID, err)
			}
			check(i)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("dynamic: Close: %v", err)
		}
	})
}
