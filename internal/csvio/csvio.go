// Package csvio reads and writes the CSV formats used by the prefmatch CLI:
// object rows ("id,v1,v2,..."), query rows ("id,w1,w2,...") and pair rows
// ("queryID,objectID,score"). Keeping the codecs here makes the CLI thin
// and the parsing testable.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"prefmatch"
)

// ReadObjects parses object rows from r. A value cell that is not a finite
// number (NaN and ±Inf included) is an error naming its row and column.
func ReadObjects(r io.Reader) ([]prefmatch.Object, error) {
	rows, err := readAll(r)
	if err != nil {
		return nil, err
	}
	objs := make([]prefmatch.Object, 0, len(rows))
	for i, row := range rows {
		id, vals, err := parseIDRow(row, i, "object")
		if err != nil {
			return nil, err
		}
		objs = append(objs, prefmatch.Object{ID: id, Values: vals})
	}
	return objs, nil
}

// WriteObjects emits object rows to w.
func WriteObjects(w io.Writer, objs []prefmatch.Object) error {
	cw := csv.NewWriter(w)
	for _, o := range objs {
		row := make([]string, 1+len(o.Values))
		row[0] = strconv.Itoa(o.ID)
		for i, v := range o.Values {
			row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadQueries parses query rows from r. Like ReadObjects, it rejects a
// weight cell that is not a finite number.
func ReadQueries(r io.Reader) ([]prefmatch.Query, error) {
	rows, err := readAll(r)
	if err != nil {
		return nil, err
	}
	qs := make([]prefmatch.Query, 0, len(rows))
	for i, row := range rows {
		id, w, err := parseIDRow(row, i, "query")
		if err != nil {
			return nil, err
		}
		qs = append(qs, prefmatch.Query{ID: id, Weights: w})
	}
	return qs, nil
}

// WriteQueries emits query rows to w.
func WriteQueries(w io.Writer, qs []prefmatch.Query) error {
	cw := csv.NewWriter(w)
	for _, q := range qs {
		row := make([]string, 1+len(q.Weights))
		row[0] = strconv.Itoa(q.ID)
		for i, v := range q.Weights {
			row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAssignments parses pair rows (queryID, objectID, score) from r.
func ReadAssignments(r io.Reader) ([]prefmatch.Assignment, error) {
	rows, err := readAll(r)
	if err != nil {
		return nil, err
	}
	out := make([]prefmatch.Assignment, 0, len(rows))
	for i, row := range rows {
		if len(row) != 3 {
			return nil, fmt.Errorf("csvio: pair row %d has %d columns, want 3", i, len(row))
		}
		q, err1 := strconv.Atoi(row[0])
		o, err2 := strconv.Atoi(row[1])
		s, err3 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("csvio: pair row %d: parse error", i)
		}
		out = append(out, prefmatch.Assignment{QueryID: q, ObjectID: o, Score: s})
	}
	return out, nil
}

// WriteAssignments emits pair rows to w.
func WriteAssignments(w io.Writer, as []prefmatch.Assignment) error {
	cw := csv.NewWriter(w)
	for _, a := range as {
		if err := cw.Write([]string{
			strconv.Itoa(a.QueryID),
			strconv.Itoa(a.ObjectID),
			strconv.FormatFloat(a.Score, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func readAll(r io.Reader) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	return cr.ReadAll()
}

func parseIDRow(row []string, i int, kind string) (int, []float64, error) {
	if len(row) < 2 {
		return 0, nil, fmt.Errorf("csvio: %s row %d needs an id and at least one value", kind, i)
	}
	id, err := strconv.Atoi(row[0])
	if err != nil {
		return 0, nil, fmt.Errorf("csvio: %s row %d: bad id %q", kind, i, row[0])
	}
	vals := make([]float64, len(row)-1)
	for j, cell := range row[1:] {
		// ParseFloat also accepts "NaN", "Inf" and "+Infinity"; such a cell
		// is as bad as an unparsable one, since no attribute or weight may
		// be non-finite.
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, nil, fmt.Errorf("csvio: %s row %d column %d: bad value %q", kind, i, j+1, cell)
		}
		vals[j] = v
	}
	return id, vals, nil
}
