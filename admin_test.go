package prefmatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

func servingFixture(t *testing.T, opts *Options) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	const d = 3
	objects := make([]Object, 200)
	for i := range objects {
		vals := make([]float64, d)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		objects[i] = Object{ID: i + 1, Values: vals}
	}
	srv, err := NewServer(objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	qs := make([]Query, 16)
	for i := range qs {
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64() + 0.1
		}
		qs[i] = Query{ID: i, Weights: w}
	}
	if _, err := srv.TopK(qs[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.TopKMany(qs, 3, 0); err != nil {
		t.Fatal(err)
	}
	return srv
}

func adminGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoints boots the admin server on an ephemeral port, serves a
// little traffic, and checks each endpoint answers with the families the
// dashboards key on.
func TestAdminEndpoints(t *testing.T) {
	srv := servingFixture(t, nil)
	addr, err := srv.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.AdminAddr(); got != addr {
		t.Fatalf("AdminAddr = %q, want %q", got, addr)
	}
	if _, err := srv.ServeAdmin("127.0.0.1:0"); err == nil {
		t.Fatal("second ServeAdmin succeeded, want error while one is running")
	}

	code, metrics := adminGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE pm_request_seconds histogram",
		`pm_request_seconds_bucket{op="topk",le="`,
		`pm_request_seconds_count{op="topk_many"}`,
		`pm_request_stage_seconds_bucket{stage="traverse",le="`,
		`pm_work_total{counter="score_evals"}`,
		`pm_work_total{counter="ta_list_accesses"}`,
		"# TYPE pm_objects gauge",
		"pm_requests_total",
		`pm_request_rate{window="`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, statsz := adminGet(t, addr, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz status = %d", code)
	}
	var doc struct {
		Served  int64           `json:"served"`
		Stats   Stats           `json:"stats"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(statsz), &doc); err != nil {
		t.Fatalf("/statsz is not valid JSON: %v\n%s", err, statsz)
	}
	if doc.Served != srv.Served() || doc.Served == 0 {
		t.Errorf("/statsz served = %d, want %d (non-zero)", doc.Served, srv.Served())
	}
	if doc.Stats.ScoreEvals == 0 {
		t.Errorf("/statsz stats carried no score evaluations: %+v", doc.Stats)
	}
	if len(doc.Metrics) == 0 {
		t.Error("/statsz metrics block empty")
	}

	code, health := adminGet(t, addr, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(health) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, health)
	}
	if code, _ := adminGet(t, addr, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.AdminAddr() != "" {
		t.Fatal("AdminAddr non-empty after Close")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("admin server still answering after Close")
	}
}

// TestAdminViaOptions checks Options.AdminAddr starts the listener during
// construction — the path `prefmatch serve -admin` uses.
func TestAdminViaOptions(t *testing.T) {
	srv := servingFixture(t, &Options{AdminAddr: "127.0.0.1:0"})
	addr := srv.AdminAddr()
	if addr == "" {
		t.Fatal("Options.AdminAddr did not start the admin server")
	}
	if code, body := adminGet(t, addr, "/metrics"); code != http.StatusOK || !strings.Contains(body, "pm_request_seconds") {
		t.Fatalf("/metrics via Options = %d, missing request histogram", code)
	}
}

// TestSlowQueryLog arms a 1ns threshold so every request is "slow" and
// checks the structured line carries the stage breakdown and the work
// counters.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	srv := servingFixture(t, &Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	_ = srv
	out := buf.String()
	if out == "" {
		t.Fatal("no slow-query lines despite a 1ns threshold")
	}
	line := strings.SplitN(out, "\n", 2)[0]
	for _, want := range []string{
		"slowquery op=", "total=", "validate=", "pin=", "traverse=", "merge=", "queries=", "work[",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %q", want, line)
		}
	}
	if !strings.Contains(out, "op=topk_many") || !strings.Contains(out, "op=topk ") {
		t.Errorf("slow log missing per-op lines:\n%s", out)
	}
	slow, ok := srv.LatencyQuantile("topk", 0.99)
	if !ok || slow <= 0 {
		t.Fatalf("LatencyQuantile(topk, .99) = %v, %v", slow, ok)
	}
	if fmt.Sprintf("%d", srv.om.slow.Load()) == "0" {
		t.Error("pm_slow_queries_total stayed zero")
	}
}
