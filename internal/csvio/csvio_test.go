package csvio

import (
	"bytes"
	"strings"
	"testing"

	"prefmatch"
)

func TestObjectsRoundTrip(t *testing.T) {
	objs := []prefmatch.Object{
		{ID: 1, Values: []float64{0.25, 0.5}},
		{ID: 42, Values: []float64{1, 0}},
		{ID: 7, Values: []float64{0.123456789012345, 0.9}},
	}
	var buf bytes.Buffer
	if err := WriteObjects(&buf, objs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadObjects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(objs) {
		t.Fatalf("%d objects back", len(back))
	}
	for i := range objs {
		if back[i].ID != objs[i].ID {
			t.Fatalf("object %d id %d", i, back[i].ID)
		}
		for j := range objs[i].Values {
			if back[i].Values[j] != objs[i].Values[j] {
				t.Fatalf("object %d value %d: %v != %v (precision lost)", i, j, back[i].Values[j], objs[i].Values[j])
			}
		}
	}
}

func TestQueriesRoundTrip(t *testing.T) {
	qs := []prefmatch.Query{
		{ID: 0, Weights: []float64{0.5, 0.5}},
		{ID: 9, Weights: []float64{0.1, 0.2, 0.7}},
	}
	var buf bytes.Buffer
	if err := WriteQueries(&buf, qs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQueries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].ID != 9 || len(back[1].Weights) != 3 {
		t.Fatalf("round trip wrong: %+v", back)
	}
}

func TestAssignmentsRoundTrip(t *testing.T) {
	as := []prefmatch.Assignment{
		{QueryID: 1, ObjectID: 100, Score: 0.875},
		{QueryID: 2, ObjectID: 101, Score: 0.5},
	}
	var buf bytes.Buffer
	if err := WriteAssignments(&buf, as); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAssignments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != as[0] || back[1] != as[1] {
		t.Fatalf("round trip wrong: %+v", back)
	}
}

func TestReadErrors(t *testing.T) {
	readObjects := func(s string) error { _, err := ReadObjects(strings.NewReader(s)); return err }
	readQueries := func(s string) error { _, err := ReadQueries(strings.NewReader(s)); return err }
	cases := []struct {
		name string
		read func(s string) error
		in   string
		want string // a substring of the error, when set
	}{
		{"object short row", readObjects, "5\n", ""},
		{"object bad id", readObjects, "x,0.5\n", ""},
		{"object bad value", readObjects, "1,zzz\n", ""},
		{"object NaN", readObjects, "0,NaN,1\n", `object row 0 column 1: bad value "NaN"`},
		{"object -inf", readObjects, "0,0.5,1\n1,1,-inf\n", `object row 1 column 2: bad value "-inf"`},
		{"query bad id", readQueries, "x,0.5\n", ""},
		{"query Inf", readQueries, "0,Inf,1\n", `query row 0 column 1: bad value "Inf"`},
		{"query +Infinity", readQueries, "0,1,+Infinity\n", `query row 0 column 2: bad value "+Infinity"`},
		{"pair wrong arity", func(s string) error { _, err := ReadAssignments(strings.NewReader(s)); return err }, "1,2\n", ""},
		{"pair bad score", func(s string) error { _, err := ReadAssignments(strings.NewReader(s)); return err }, "1,2,x\n", ""},
	}
	for _, c := range cases {
		err := c.read(c.in)
		if err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	objs, err := ReadObjects(strings.NewReader(""))
	if err != nil || len(objs) != 0 {
		t.Fatalf("empty objects: %v %v", objs, err)
	}
	as, err := ReadAssignments(strings.NewReader(""))
	if err != nil || len(as) != 0 {
		t.Fatalf("empty pairs: %v %v", as, err)
	}
}

// End-to-end through the matcher: CSV in, CSV out, verify.
func TestPipelineThroughMatcher(t *testing.T) {
	objCSV := "0,0.9,0.1\n1,0.1,0.9\n2,0.5,0.5\n"
	qCSV := "0,1,0\n1,0,1\n"
	objs, err := ReadObjects(strings.NewReader(objCSV))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ReadQueries(strings.NewReader(qCSV))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prefmatch.Match(objs, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAssignments(&buf, res.Assignments); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAssignments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := prefmatch.Verify(objs, qs, back); err != nil {
		t.Fatal(err)
	}
}
