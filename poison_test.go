// Poisoned geometry: a NaN or infinite attribute would make every MBR
// comparison false, silently disabling pruning and misordering results, so
// every entry point that indexes an object must reject it up front with an
// error naming the object and the attribute. The CLI's CSV reader rejects
// such a cell before that, naming its row and column.
package prefmatch_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"prefmatch"
	"prefmatch/internal/csvio"
)

func TestRejectNonFiniteAttributes(t *testing.T) {
	good := serveObjects(50, 3, 101)
	qs := serveQueries(5, 3, 102)
	// poisoned returns the good set with object 7's attribute 1 set to v.
	poisoned := func(v float64) []prefmatch.Object {
		objs := append([]prefmatch.Object(nil), good...)
		vals := append([]float64(nil), objs[7].Values...)
		vals[1] = v
		objs[7].Values = vals
		return objs
	}
	live, err := prefmatch.NewServer(good, &prefmatch.Options{Backend: prefmatch.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		objs := poisoned(v)
		bad := objs[7]
		csvRows := "1,0.5,0.5,0.5\n7,0.25," + strconv.FormatFloat(v, 'g', -1, 64) + ",0.75\n"
		named := []string{"object 7 ", "attribute 1"}
		cases := []struct {
			name  string
			call  func() error
			names []string // what the error must name
		}{
			{"NewServer", func() error { _, err := prefmatch.NewServer(objs, nil); return err }, named},
			{"Match", func() error { _, err := prefmatch.Match(objs, qs, nil); return err }, named},
			{"BuildIndex", func() error { _, err := prefmatch.BuildIndex(objs, nil); return err }, named},
			{"Insert", func() error { return live.Insert(prefmatch.Object{ID: 9000, Values: bad.Values}) }, []string{"object 9000 ", "attribute 1"}},
			{"Update", func() error { return live.Update(prefmatch.Object{ID: bad.ID, Values: bad.Values}) }, named},
			{"csvio", func() error { _, err := csvio.ReadObjects(strings.NewReader(csvRows)); return err }, []string{"row 1 column 2"}},
		}
		for _, c := range cases {
			err := c.call()
			if err == nil {
				t.Fatalf("%s accepted attribute %v", c.name, v)
			}
			for _, name := range c.names {
				if msg := err.Error(); !strings.Contains(msg, name) {
					t.Fatalf("%s(%v): error %q does not name %q", c.name, v, msg, name)
				}
			}
		}
	}
	if live.Len() != len(good) {
		t.Fatalf("rejected writes changed the index: Len %d, want %d", live.Len(), len(good))
	}
}
