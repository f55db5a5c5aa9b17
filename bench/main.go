// Command bench is the repository's canonical benchmark: four seeded
// workloads against the public prefmatch API, each printing its end-to-end
// metrics (or, traced, its per-layer metrics) and checking every sampled
// answer against a brute-force oracle. See README.md for the workloads, the
// metric glossary and how to read a trace.
//
//	go run . --workload topk-open --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_us": {"value": 45.1, "unit": "us"}, ...}}
//
// A run whose answers disagree with the oracle prints
// correctness.mismatches=N, reports "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings. Sizes and rates live in scale, fixed per
// workload; only the seed, the measured duration and tracing vary per run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // JSON-lines span file a traced run writes ("" writes none)
	scale    scale

	// corrupt falsifies one sampled answer before the oracle sees it. Only
	// tests set it, to prove a wrong answer fails the run.
	corrupt bool
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one workload run reports.
type result struct {
	attempted, failed int64
	mismatches        int
	e2e               []metric // the gated end-to-end metrics (untraced run)
	layers            []metric // the per-layer metrics (traced run)
	extra             []metric // printed but not part of the JSON line
	notes             []string // printed lines: reconciliation, parity
}

func (r *result) add(dst *[]metric, name, unit string, v float64) {
	*dst = append(*dst, metric{name: name, unit: unit, value: v})
}

type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"topk-open", runTopKOpen},
	{"topk-batch", runTopKBatch},
	{"match-anti", runMatchAnti},
	{"session-churn", runSessionChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

// mainExit runs the command and returns its exit code: 0 for a correct run,
// 1 when an answer disagreed with the oracle, 2 for a usage or setup error
// (which prints no result line).
func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: topk-open, topk-batch, match-anti or session-churn")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics instead of end-to-end ones")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "directory a traced run writes its span file into")
	repeat := fs.Int("repeat", 0, "calibrate: run the workload this many times (seeds seed, seed+1, ...) in child processes and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *repeat > 0 {
		if err := calibrate(stdout, stderr, w.name, *seed, *seconds, *trace, *spansDir, *repeat); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: fullScale}
	if cfg.trace {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		cfg.spans = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	code, err := runAndReport(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	return code
}

// runAndReport runs one workload, prints its report and returns the exit
// code.
func runAndReport(w workload, cfg config, stdout io.Writer) (int, error) {
	fmt.Fprintf(stdout, "bench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())
	res, err := w.run(cfg)
	if err != nil {
		return 2, err
	}
	if err := report(stdout, cfg, res); err != nil {
		return 2, err
	}
	if res.mismatches > 0 {
		return 1, nil
	}
	return 0, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines and then the JSON result line. A
// traced run's end-to-end lines come from its untraced half.
func report(w io.Writer, cfg config, res *result) error {
	gated := res.e2e
	if cfg.trace {
		gated = res.layers
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	lines := append(append([]metric{}, res.e2e...), res.extra...)
	if cfg.trace {
		lines = append(lines, res.layers...)
	}
	printed := map[string]bool{}
	for _, m := range lines {
		if !printed[m.name] {
			printed[m.name] = true
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	if res.mismatches > 0 {
		fmt.Fprintf(w, "correctness.mismatches=%d\n", res.mismatches)
	}
	if res.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out := jsonResult{Correct: res.mismatches == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range gated {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// duration is the length of the run's measured phase.
func (cfg config) duration() time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}
