package csvio

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"prefmatch"
)

// idRowsKey renders ID rows (objects or queries) with every value's bits, so
// two renderings are equal only when the rows are equal bit for bit.
func idRowsKey(n int, row func(i int) (int, []float64)) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		id, vals := row(i)
		fmt.Fprintf(&b, "%d:", id)
		for _, v := range vals {
			fmt.Fprintf(&b, "%x,", math.Float64bits(v))
		}
		b.WriteByte(';')
	}
	return b.String()
}

func objectsKey(objs []prefmatch.Object) string {
	return idRowsKey(len(objs), func(i int) (int, []float64) { return objs[i].ID, objs[i].Values })
}

func queriesKey(qs []prefmatch.Query) string {
	return idRowsKey(len(qs), func(i int) (int, []float64) { return qs[i].ID, qs[i].Weights })
}

func pairsKey(as []prefmatch.Assignment) string {
	var b strings.Builder
	for _, a := range as {
		fmt.Fprintf(&b, "%d:%d:%x;", a.QueryID, a.ObjectID, math.Float64bits(a.Score))
	}
	return b.String()
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzCSVRoundTrip hands arbitrary bytes to each reader. No input may panic;
// each object, query or pair set a reader accepts must come back bit for bit
// through its writer and reader; and no accepted object, query or pair score
// may be a NaN or an infinity. The seed corpus lives in testdata/fuzz.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if objs, err := ReadObjects(bytes.NewReader(data)); err == nil {
			for _, o := range objs {
				if !finite(o.Values) {
					t.Fatalf("accepted object %d with values %v", o.ID, o.Values)
				}
			}
			var buf bytes.Buffer
			if err := WriteObjects(&buf, objs); err != nil {
				t.Fatalf("WriteObjects: %v", err)
			}
			back, err := ReadObjects(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("written objects do not read back: %v\n%s", err, buf.Bytes())
			}
			if got, want := objectsKey(back), objectsKey(objs); got != want {
				t.Fatalf("objects changed in a round trip:\n got %s\nwant %s", got, want)
			}
		}
		if qs, err := ReadQueries(bytes.NewReader(data)); err == nil {
			for _, q := range qs {
				if !finite(q.Weights) {
					t.Fatalf("accepted query %d with weights %v", q.ID, q.Weights)
				}
			}
			var buf bytes.Buffer
			if err := WriteQueries(&buf, qs); err != nil {
				t.Fatalf("WriteQueries: %v", err)
			}
			back, err := ReadQueries(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("written queries do not read back: %v\n%s", err, buf.Bytes())
			}
			if got, want := queriesKey(back), queriesKey(qs); got != want {
				t.Fatalf("queries changed in a round trip:\n got %s\nwant %s", got, want)
			}
		}
		if as, err := ReadAssignments(bytes.NewReader(data)); err == nil {
			for _, a := range as {
				if !finite([]float64{a.Score}) {
					t.Fatalf("accepted pair (%d, %d) with score %v", a.QueryID, a.ObjectID, a.Score)
				}
			}
			var buf bytes.Buffer
			if err := WriteAssignments(&buf, as); err != nil {
				t.Fatalf("WriteAssignments: %v", err)
			}
			back, err := ReadAssignments(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("written pairs do not read back: %v\n%s", err, buf.Bytes())
			}
			if got, want := pairsKey(back), pairsKey(as); got != want {
				t.Fatalf("pairs changed in a round trip:\n got %s\nwant %s", got, want)
			}
		}
	})
}
