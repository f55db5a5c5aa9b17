package prefmatch

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"prefmatch/internal/guard"
	"prefmatch/internal/obs"
	"prefmatch/internal/stats"
)

// serverOp identifies the operation class a served request belongs to; each
// op gets its own latency histogram and error counter.
type serverOp int

const (
	opTopK     serverOp = iota // TopK, TopKMonotone (single ranked query)
	opTopKMany                 // TopKMany / TopKManyAppend chunks (batched ranked queries)
	opMatch                    // Match / MatchMany waves
	opSkyline                  // Skyline
	opInsert
	opUpdate
	opRemove
	opCompact
	opSessionTopK // Session.TopK / TopKAppend (cached, requalified or walked)
	numOps
)

var opNames = [numOps]string{
	"topk", "topk_many", "match", "skyline",
	"insert", "update", "remove", "compact",
	"session_topk",
}

// reqStage is one phase of a served read request. The stages partition the
// request's wall clock: validate (query checking before any index work),
// pin (scratch acquisition and epoch re-pinning), traverse (the actual
// index work), merge (folding the request's counters into the server
// totals).
type reqStage int

const (
	stageValidate reqStage = iota
	stagePin
	stageTraverse
	stageMerge
	numStages
)

var stageNames = [numStages]string{"validate", "pin", "traverse", "merge"}

// reqTrace accumulates one request's per-stage timings. It lives on the
// caller's stack — begin/mark/observe never let it escape — so tracing adds
// two time reads per stage and zero allocations to the hot path.
type reqTrace struct {
	last   time.Time
	stages [numStages]time.Duration
}

// begin starts the trace with an externally measured validation duration
// (callers time validation themselves because it happens before any shared
// plumbing exists).
func (t *reqTrace) begin(validate time.Duration) {
	t.stages = [numStages]time.Duration{}
	t.stages[stageValidate] = validate
	t.last = time.Now()
}

// mark closes the current stage as st: everything since the previous mark
// (or begin) is charged to it.
func (t *reqTrace) mark(st reqStage) {
	now := time.Now()
	t.stages[st] += now.Sub(t.last)
	t.last = now
}

// total returns the sum of the recorded stages.
func (t *reqTrace) total() time.Duration {
	var d time.Duration
	for _, s := range t.stages {
		d += s
	}
	return d
}

// serverMetrics is a Server's observability state: the registry every
// series is registered in, the per-op and per-stage histograms the request
// paths record into, and the slow-query log configuration. Recording
// methods (finish, observeOp, fail) are allocation-free; everything that
// formats runs at scrape time or behind the slow-query threshold.
type serverMetrics struct {
	reg      *obs.Registry
	latency  [numOps]*obs.Histogram
	stages   [numStages]*obs.Histogram
	errors   [numOps]*obs.Counter
	requests *obs.Meter
	slow     *obs.Counter
	merges   *obs.MergeMetrics

	// Robustness counters: requests shed by the admission gate, requests
	// abandoned by their caller's deadline or cancel, and worker panics
	// converted into request errors. shedMeter feeds /healthz's degraded
	// detection with a trailing-window shed rate.
	shed      *obs.Counter
	canceled  *obs.Counter
	panics    *obs.Counter
	shedMeter *obs.Meter

	slowThreshold time.Duration
	slowMu        sync.Mutex
	slowLog       io.Writer
}

// newServerMetrics builds and registers a Server's metric surface. The
// backend-conditional families (dynamic gauges, merge histograms, per-shard
// loads) are registered only when the serving index supports them, so a
// static single-index server exports a clean minimal set.
func newServerMetrics(s *Server, opts *Options) *serverMetrics {
	m := &serverMetrics{
		reg:      obs.NewRegistry(),
		requests: obs.NewMeter(),
	}
	if opts != nil {
		m.slowThreshold = opts.SlowQueryThreshold
		m.slowLog = opts.SlowQueryLog
	}
	if m.slowLog == nil {
		m.slowLog = os.Stderr
	}

	for op := serverOp(0); op < numOps; op++ {
		m.latency[op] = m.reg.Histogram("pm_request_seconds",
			"Request latency by operation.", 1e-9, "op", opNames[op])
		m.errors[op] = m.reg.Counter("pm_request_errors_total",
			"Requests that returned an error, by operation.", "op", opNames[op])
	}
	for st := reqStage(0); st < numStages; st++ {
		m.stages[st] = m.reg.Histogram("pm_request_stage_seconds",
			"Per-stage request time across all operations.", 1e-9, "stage", stageNames[st])
	}
	m.slow = m.reg.Counter("pm_slow_queries_total",
		"Requests over the slow-query threshold (logged with stage breakdown).")
	m.shed = m.reg.Counter("pm_shed_total",
		"Requests refused by the admission gate with ErrOverloaded.")
	m.canceled = m.reg.Counter("pm_canceled_total",
		"Requests abandoned mid-flight by their context (canceled or past deadline).")
	m.panics = m.reg.Counter("pm_panics_total",
		"Worker panics recovered into per-request errors (each is logged with its stack).")
	m.shedMeter = obs.NewMeter()
	m.reg.GaugeFunc("pm_inflight",
		"Requests currently inside the admission gate.",
		func() float64 { return float64(s.inflight.Load()) })
	m.reg.CounterFunc("pm_requests_total",
		"Logical queries served (batched requests count each query).", s.Served)
	m.reg.GaugeFunc("pm_request_rate",
		"Served queries per second over the trailing window.",
		func() float64 { return m.requests.Rate(10 * time.Second) }, "window", "10s")
	m.reg.GaugeFunc("pm_objects",
		"Objects currently indexed.", func() float64 { return float64(s.Len()) })

	registerWorkCounters(m.reg, s)
	m.registerDynamic(s)
	m.registerSharded(s)
	m.registerSessions(s)
	return m
}

// registerWorkCounters exports every stats.Counters field as one series of
// the pm_work_total family, named by reflection so a field added to
// Counters shows up here without a second edit (the same no-drift property
// the stats coverage test enforces on the Stats projection).
func registerWorkCounters(reg *obs.Registry, s *Server) {
	t := reflect.TypeOf(stats.Counters{})
	for i := 0; i < t.NumField(); i++ {
		idx := i
		reg.CounterFunc("pm_work_total",
			"Cumulative work counters across all served requests (the paper's accounting).",
			func() int64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return reflect.ValueOf(s.agg).Field(idx).Int()
			}, "counter", snakeCase(t.Field(i).Name))
	}
}

// registerDynamic exports the live write tier's state when the backend
// rotates epochs: point-in-time gauges sampled at scrape (zero hot-path
// cost) plus the merge duration/pause histograms the tier records into.
func (m *serverMetrics) registerDynamic(s *Server) {
	setter, ok := s.ix.(interface{ SetMergeMetrics(*obs.MergeMetrics) })
	if !ok {
		return
	}
	m.merges = &obs.MergeMetrics{}
	setter.SetMergeMetrics(m.merges)
	m.reg.RegisterHistogram("pm_merge_seconds",
		"Full wall clock of background write-tier merges.", &m.merges.Duration, 1e-9)
	m.reg.RegisterHistogram("pm_merge_pause_seconds",
		"Writer-visible stall of merge publication (replay + epoch rotation under the writer lock).",
		&m.merges.Pause, 1e-9)
	if e, ok := s.ix.(interface{ Epoch() uint64 }); ok {
		m.reg.GaugeFunc("pm_epoch", "Current snapshot epoch (summed across shards).",
			func() float64 { return float64(e.Epoch()) })
	}
	if d, ok := s.ix.(interface{ DeltaSize() int }); ok {
		m.reg.GaugeFunc("pm_delta_size", "Write-tier occupancy: delta objects plus tombstones.",
			func() float64 { return float64(d.DeltaSize()) })
	}
	if tb, ok := s.ix.(interface{ Tombstones() int }); ok {
		m.reg.GaugeFunc("pm_tombstones", "Base-tier tombstones awaiting the next merge.",
			func() float64 { return float64(tb.Tombstones()) })
	}
	if a, ok := s.ix.(interface{ EpochAge() time.Duration }); ok {
		m.reg.GaugeFunc("pm_epoch_age_seconds",
			"Time since the last epoch rotation (oldest shard when sharded).",
			func() float64 { return a.EpochAge().Seconds() })
	}
	if mc, ok := s.ix.(interface{ MergesCompleted() int64 }); ok {
		m.reg.CounterFunc("pm_merges_completed_total",
			"Background merges published.", mc.MergesCompleted)
	}
}

// registerSharded exports per-shard search accounting and the skew ratio —
// the re-partitioning signal — when the server runs on the composite. The
// counts are settled per recorded request (each ≤64-query chunk of a batch
// records on its own) from the walks it ran over the composite snapshot:
// top-k, session walks, skyline and matching waves.
func (m *serverMetrics) registerSharded(s *Server) {
	if s.sh == nil {
		return
	}
	sh := s.sh
	for i := 0; i < sh.NumShards(); i++ {
		shard := i
		label := strconv.Itoa(i)
		m.reg.CounterFunc("pm_shard_queries_total",
			"Requests (top-k chunks, session walks, skylines, matching waves) whose walks entered this shard.",
			func() int64 { return sh.ShardLoadAt(shard).Queries }, "shard", label)
		m.reg.CounterFunc("pm_shard_pruned_total",
			"Requests (top-k chunks, session walks, skylines, matching waves) whose walks read the synthetic root but skipped this shard whole on its MBR bound.",
			func() int64 { return sh.ShardLoadAt(shard).Pruned }, "shard", label)
		m.reg.GaugeFunc("pm_shard_objects",
			"Objects currently in this shard.",
			func() float64 { return float64(sh.ShardSizes()[shard]) }, "shard", label)
	}
	m.reg.GaugeFunc("pm_shard_query_skew",
		"Max/mean of per-shard query counts; 1.0 is a balanced load.",
		sh.QuerySkew)
}

// registerSessions exports the preference-session surface: how many sessions
// are open, and the result cache's hit/miss/requalified/fallback/eviction
// accounting plus the hit-ratio gauge (absent when the cache is disabled via
// a negative Options.ResultCacheEntries).
func (m *serverMetrics) registerSessions(s *Server) {
	m.reg.GaugeFunc("pm_sessions_open",
		"Preference sessions currently open (OpenSession minus Close).",
		func() float64 {
			s.sessMu.Lock()
			n := len(s.sessions)
			s.sessMu.Unlock()
			return float64(n)
		})
	rc := s.rc
	if rc == nil {
		return
	}
	m.reg.CounterFunc("pm_rescache_hits_total",
		"Session answers served whole from the result cache (no index work).", rc.Hits)
	m.reg.CounterFunc("pm_rescache_misses_total",
		"Result-cache lookups that found no entry for (weights, k, epoch).", rc.Misses)
	m.reg.CounterFunc("pm_rescache_requalified_total",
		"Session answers proven still-exact by re-scoring the cached set (no tree walk).", rc.Requalified)
	m.reg.CounterFunc("pm_rescache_fallbacks_total",
		"Session answers that fell back to a ranked tree walk.", rc.Fallbacks)
	m.reg.CounterFunc("pm_rescache_evictions_total",
		"Result-cache entries displaced by eviction.", rc.Evictions)
	m.reg.GaugeFunc("pm_rescache_hit_ratio",
		"Hits over lookups of the session result cache.", rc.HitRatio)
}

// finish records one completed request: its total latency into the op
// histogram, each stage into the stage histograms, n logical queries into
// the rate meter — all allocation-free — and, when the slow-query log is
// armed and the request qualifies, the structured breakdown (the only
// branch that formats, and it never runs with the threshold unset).
func (m *serverMetrics) finish(op serverOp, tr *reqTrace, c *stats.Counters, n int) {
	total := tr.total()
	m.latency[op].ObserveDuration(total)
	for st := range tr.stages {
		if d := tr.stages[st]; d > 0 {
			m.stages[st].ObserveDuration(d)
		}
	}
	m.requests.Mark(int64(n))
	if m.slowThreshold > 0 && total >= m.slowThreshold {
		m.emitSlow(op, tr, c, n, total)
	}
}

// observeOp records a request that has no stage structure (the write path).
func (m *serverMetrics) observeOp(op serverOp, d time.Duration) {
	m.latency[op].ObserveDuration(d)
	m.requests.Mark(1)
}

// fail counts a request that returned an error (its latency is not
// recorded: error returns are dominated by validation rejects, which would
// drag the latency histograms toward the trivial path).
func (m *serverMetrics) fail(op serverOp) { m.errors[op].Inc() }

// noteShed counts one request refused by the admission gate, into both the
// cumulative counter and the trailing-rate meter /healthz reads.
func (m *serverMetrics) noteShed() {
	m.shed.Inc()
	m.shedMeter.Mark(1)
}

// notePanic counts one recovered worker panic and writes the offending
// request — operation, representative query ID, panic value, full stack —
// to the slow-query log, the server's existing "something is wrong, look
// here" channel.
func (m *serverMetrics) notePanic(op serverOp, qid int, pe *guard.PanicError) {
	m.panics.Inc()
	var b strings.Builder
	fmt.Fprintf(&b, "panic op=%s query=%d value=%v\n", opNames[op], qid, pe.Val)
	b.Write(pe.Stack)
	if len(pe.Stack) == 0 || pe.Stack[len(pe.Stack)-1] != '\n' {
		b.WriteByte('\n')
	}
	m.slowMu.Lock()
	io.WriteString(m.slowLog, b.String())
	m.slowMu.Unlock()
}

// emitSlow writes one structured slow-query line: operation, total and
// per-stage timings, batch width, and the request's full work-counter dump
// — the paper's accounting, so a slow query explains itself in the same
// vocabulary as the evaluation (nodes visited, dominance checks, heap ops,
// shards pruned).
func (m *serverMetrics) emitSlow(op serverOp, tr *reqTrace, c *stats.Counters, n int, total time.Duration) {
	m.slow.Inc()
	var b strings.Builder
	fmt.Fprintf(&b, "slowquery op=%s total=%s", opNames[op], total)
	for st := range tr.stages {
		fmt.Fprintf(&b, " %s=%s", stageNames[st], tr.stages[st])
	}
	fmt.Fprintf(&b, " queries=%d work[%s]\n", n, c.String())
	m.slowMu.Lock()
	io.WriteString(m.slowLog, b.String())
	m.slowMu.Unlock()
}

// snakeCase converts a Go field name to a Prometheus label value:
// PageReads -> page_reads, TAListAccesses -> ta_list_accesses.
func snakeCase(s string) string {
	rs := []rune(s)
	var b strings.Builder
	for i, r := range rs {
		if unicode.IsUpper(r) {
			if i > 0 && (unicode.IsLower(rs[i-1]) || (i+1 < len(rs) && unicode.IsLower(rs[i+1]))) {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WriteMetrics renders the server's full metric surface in the Prometheus
// text exposition format — what the admin endpoint's /metrics serves.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.om.reg.WritePrometheus(w)
}

// WriteStatsJSON renders the same metric surface as JSON (histograms with
// count, sum and p50/p90/p99/p999) — what /statsz serves.
func (s *Server) WriteStatsJSON(w io.Writer) error {
	return s.om.reg.WriteJSON(w)
}

// LatencyQuantile returns the q-quantile (0..1) of the served latency of
// one operation class ("topk", "topk_many", "match", "skyline", "insert",
// "update", "remove", "compact", "session_topk"), from the same histogram
// /metrics exports
// — so a benchmark reporting through this and a dashboard reading the
// scrape agree by construction. ok is false for an unknown operation or
// when nothing was recorded yet.
func (s *Server) LatencyQuantile(op string, q float64) (time.Duration, bool) {
	for i, n := range opNames {
		if n != op {
			continue
		}
		h := s.om.latency[i]
		if h.Count() == 0 {
			return 0, false
		}
		return time.Duration(h.Quantile(q)), true
	}
	return 0, false
}
