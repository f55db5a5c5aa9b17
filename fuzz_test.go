package prefmatch

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// decodeMatchInput turns fuzz bytes into a small matching instance: byte 0
// picks D ∈ {2,3,4}, bytes 1 and 2 cap the object and function counts at 64
// and 16, and the rest are consumed D at a time, objects first. Coordinates
// are quantised to eighths and weights to {0,1,2,3}, so equal scores, equal
// sums and duplicate points are common — the inputs where tie-breaking and
// the skyline's dominance shortcuts can go wrong. ok is false when the bytes
// do not describe at least one object and one function.
func decodeMatchInput(data []byte) (objs []Object, qs []Query, ok bool) {
	if len(data) < 3 {
		return nil, nil, false
	}
	d := 2 + int(data[0]%3)
	nObj, nFn := 1+int(data[1]%64), 1+int(data[2]%16)
	rest := data[3:]
	take := func() ([]byte, bool) {
		if len(rest) < d {
			return nil, false
		}
		b := rest[:d]
		rest = rest[d:]
		return b, true
	}
	for len(objs) < nObj {
		b, more := take()
		if !more {
			break
		}
		vals := make([]float64, d)
		for j, v := range b {
			vals[j] = float64(v%8) / 7
		}
		objs = append(objs, Object{ID: len(objs), Values: vals})
	}
	for len(qs) < nFn {
		b, more := take()
		if !more {
			break
		}
		w := make([]float64, d)
		sum := 0.0
		for j, v := range b {
			w[j] = float64(v % 4)
			sum += w[j]
		}
		if sum == 0 {
			w[int(b[0])%d] = 1
		}
		qs = append(qs, Query{ID: len(qs), Weights: w})
	}
	return objs, qs, len(objs) > 0 && len(qs) > 0
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
// both TA thresholds, Brute Force and Chain. Verify must accept every
// emission sequence. The seed corpus lives in testdata/fuzz.
func FuzzMatchAlgorithmsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, qs, ok := decodeMatchInput(data)
		if !ok {
			t.Skip()
		}
		type config struct {
			name string
			opts Options
		}
		configs := []config{
			{"bf", Options{Algorithm: BruteForce}},
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
	})
}
