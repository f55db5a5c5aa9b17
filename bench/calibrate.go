package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// calibrate runs one workload n times, each in a fresh child process with its
// own seed, as a regression comparison runs it, and prints every metric's
// median, quartiles and spread (interquartile range over median) together
// with the bound the spread supports: at least 5%, at least three spreads,
// at most 25%. A metric whose spread needs more than 25% cannot be gated and
// is marked for demotion to a diagnostic.
func calibrate(stdout, stderr io.Writer, name string, seed int64, seconds float64, trace int, spansDir string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"--spans-dir", spansDir)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d) was not correct", i, s)
		}
		fmt.Fprintf(stdout, "run %d seed=%d attempted=%d failed=%d\n", i, s, res.Attempted, res.Failed)
		for m, v := range res.Metrics {
			if _, seen := units[m]; !seen {
				order = append(order, m)
			}
			units[m] = v.Unit
			values[m] = append(values[m], v.Value)
		}
	}
	sort.Strings(order)
	for _, m := range order {
		fmt.Fprintf(stdout, "%-36s", m)
		for _, v := range values[m] {
			fmt.Fprintf(stdout, " %.6g", v)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\n%-36s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, m := range order {
		v := values[m]
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		bound := math.Ceil(math.Max(0.05, 3*spread)*100) / 100
		flag := ""
		if bound > 0.25 {
			flag = "  demote: spread too wide to gate"
		}
		fmt.Fprintf(stdout, "%-36s %-6s %12.6g %12.6g %12.6g %7.2f%% %7.2f%s\n", m, units[m], med, q1, q3, 100*spread, bound, flag)
	}
	return nil
}

// lastResult parses the JSON result line a run prints last.
func lastResult(out []byte) (jsonResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res jsonResult
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, sc.Err()
}
