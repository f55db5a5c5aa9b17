package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toyRun runs one workload at toy scale (about a second) and returns its
// exit code and output.
func toyRun(t *testing.T, name string, trace, corrupt bool) (int, string) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	cfg := config{workload: name, seed: 7, seconds: 0.5, trace: trace, scale: toyScale, corrupt: corrupt}
	if trace {
		cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	var out bytes.Buffer
	code, err := runAndReport(w, cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return code, out.String()
}

// TestWorkloadsAtToyScale runs every workload untraced and traced with the
// oracle on, and checks each prints exactly its declared metrics. No timing
// is asserted.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			code, out := toyRun(t, w.name, trace, false)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w.name, trace, code, out)
			}
			res, err := lastResult([]byte(out))
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Fatalf("%s trace=%v: metric %s missing or not in %s: %+v", w.name, trace, m.name, m.unit, got)
				}
			}
			if trace && !strings.Contains(out, "reconcile: Server.TopK") {
				t.Fatalf("%s: traced run printed no reconciliation line\n%s", w.name, out)
			}
		}
	}
}

// TestCorruptedAnswerFailsTheRun proves the oracle gate bites: one falsified
// answer makes every workload report a mismatch and exit 1.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		code, out := toyRun(t, w.name, false, true)
		if code != 1 || !strings.Contains(out, "correctness.mismatches=") {
			t.Fatalf("%s: corrupted answer gave exit %d\n%s", w.name, code, out)
		}
		if res, err := lastResult([]byte(out)); err != nil || res.Correct {
			t.Fatalf("%s: corrupted run reported correct=%v (%v)", w.name, res.Correct, err)
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "topk-open", "--trace", "2"},
		{"--workload", "topk-open", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := mainExit(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkFileMatchesTheCode pins BENCHMARK.json to the metric and
// workload tables the code prints from.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

func TestQuartilesMatchTheExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
