package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prefmatch"
)

// probe is what a run reads from the system around its measured phase: the
// server's exported metrics, its work counters and the runtime's counters.
type probe struct {
	scr   map[string]float64
	stats prefmatch.Stats
	rt    rtSample
}

func takeProbe(srv *prefmatch.Server) (probe, error) {
	scr, err := scrape(srv)
	return probe{scr: scr, stats: srv.Stats(), rt: readRuntime()}, err
}

// addProbes fills the per-layer metrics that come from the difference of two
// probes: ops is the phase's completed operations, reads its read requests.
func (lv layerValues) addProbes(a, b probe, ops, reads int64) {
	lv.addServerScrape(a.scr, b.scr, ops)
	lv.addRuntime(a.rt, b.rt, ops)
	if reads > 0 {
		lv["index.delta_nodes_per_read"] = float64(b.stats.DeltaNodesVisited-a.stats.DeltaNodesVisited) / float64(reads)
	}
}

// phase holds what every workload sets up the same way: the measured
// duration, the traced half and the tracer.
type phase struct {
	dur, traceAt time.Duration
	tr           *tracer
}

func newPhase(cfg config) phase {
	p := phase{dur: cfg.duration(), traceAt: cfg.duration()}
	if cfg.trace {
		p.traceAt = p.dur / 2
		p.tr = newTracer(time.Now())
	}
	return p
}

// finishTrace runs a traced run's layer replay, prints the reconciliation
// (with its residue against the live latencies when label names a
// Server.TopK workload) and writes the spans.
func finishTrace(cfg config, res *result, p phase, lv layerValues, rp *replay, label string, live latencies, lateP50 float64) error {
	rp.tr, rp.lv = p.tr, lv
	p.tr.openReplay()
	m, err := rp.run()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	res.mismatches += m
	res.notes = append(res.notes,
		fmt.Sprintf("replay: %d queries; parity mismatches against the server: %d", len(rp.queries), m),
		rp.reconcile(label, live, lateP50))
	lv.emit(res)
	if cfg.spans != "" {
		if err := p.tr.write(cfg.spans); err != nil {
			return err
		}
		res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s (%d dropped past the cap)", len(p.tr.spans), cfg.spans, p.tr.dropped))
	}
	return nil
}

// checkAll runs n independent oracle checks across GOMAXPROCS workers and
// returns how many failed.
func checkAll(n int, ok func(i int) bool) int {
	var bad atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !ok(i) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// corruptAnswer falsifies an answer in place (the tests' proof that a wrong
// answer fails the run).
func corruptAnswer(a []prefmatch.Assignment) {
	if len(a) > 0 {
		a[0].ObjectID = -1
	}
}

// closeServer tears down a set-up the run no longer needs; its drain result
// does not matter to the measurement.
func closeServer(s *prefmatch.Server) { _ = s.Close() }

// sameMatching reports whether two matchings pair every query with the same
// object at the same score. Algorithms emit the stable pairs in different
// orders (SB emits several per loop), so the pairs are compared by query.
func sameMatching(a, b []prefmatch.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	byQuery := func(x, y prefmatch.Assignment) int { return x.QueryID - y.QueryID }
	a, b = slices.SortedFunc(slices.Values(a), byQuery), slices.SortedFunc(slices.Values(b), byQuery)
	return slices.Equal(a, b)
}

func all(int) bool { return true }

// runTopKOpen is the per-query serving path under an open loop: one paced
// client sends Server.TopKContext with fresh weights at a fixed rate against
// a static Memory server whose points outgrow a core's L2 cache.
func runTopKOpen(cfg config) (*result, error) {
	sc := cfg.scale
	res := &result{}
	objs := independentObjects(sc.openObjects, sc.dim, newRand(cfg.seed, streamObjects))
	setup := &setupMeter[*prefmatch.Server]{reps: sc.openSetupReps, objects: len(objs), teardown: closeServer,
		build: func() (*prefmatch.Server, error) {
			return prefmatch.NewServer(objs, &prefmatch.Options{Backend: prefmatch.Memory})
		}}
	srv, err := setup.first()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// A request context that never fires, as a real request would carry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < sc.warmup; i++ {
		if _, err := srv.TopKContext(ctx, query(cfg.seed, streamWarmup, int64(i), sc.dim), sc.k); err != nil {
			return nil, err
		}
	}

	p := newPhase(cfg)
	stride := max(1, int64(sc.openRate*cfg.seconds)/int64(sc.oracleOpen))
	type sample struct {
		i   int64
		ans []prefmatch.Assignment
	}
	samples := make([]sample, 0, sc.oracleOpen)
	q := prefmatch.Query{Weights: make([]float64, sc.dim)}
	before, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	loop := openLoop(sc.openRate, p.dur, p.traceAt, p.tr, []opKind{{span: "server.TopKContext"}}, func(i int64) (int, error) {
		q.ID = int(i)
		queryWeights(cfg.seed, streamQueries, i, q.Weights)
		ans, err := srv.TopKContext(ctx, q, sc.k)
		if err == nil && i%stride == 0 && len(samples) < cap(samples) {
			samples = append(samples, sample{i, ans})
		}
		return 0, err
	})
	after, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = loop.attempted, loop.failed

	if cfg.corrupt && len(samples) > 0 {
		corruptAnswer(samples[0].ans)
	}
	res.mismatches += checkAll(len(samples), func(j int) bool {
		s := samples[j]
		return sameAnswer(s.ans, oracleTopK(objs, query(cfg.seed, streamQueries, s.i, sc.dim).Weights, sc.k))
	})
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d sampled answers checked", len(samples)))

	if err := setup.rest(); err != nil {
		return nil, err
	}
	setupS, bpo := setup.result()
	lat := loop.pick(0, all)
	finishE2E(res, setupS, bpo, lat, loop.completed(), loop.elapsed, loop.cpu, loop.completed())
	res.add(&res.extra, "client.late_p90_us", "us", loop.late.pct(0.90))
	res.add(&res.extra, "error_frac", "ratio", float64(loop.failed)/float64(loop.attempted))
	if !cfg.trace {
		return res, nil
	}
	lv := layerValues{}
	lv.addProbes(before, after, loop.completed(), loop.completed())
	lv.addClient(lat, loop.pick(1, all), loop.late)
	rp := &replay{srv: srv, objs: objs, k: sc.k, nodeParity: true}
	for i := 0; i < min(sc.replay, int(loop.attempted)); i++ {
		rp.queries = append(rp.queries, query(cfg.seed, streamQueries, int64(i), sc.dim))
	}
	err = finishTrace(cfg, res, p, lv, rp, "topk-open live open loop", lat, loop.late.pct(0.5))
	return res, err
}

// runTopKBatch is the shared-traversal batch path in cache: two closed-loop
// clients send batches of fresh queries through Server.TopKManyAppend
// against a small static Memory server of anti-correlated objects.
func runTopKBatch(cfg config) (*result, error) {
	sc := cfg.scale
	res := &result{}
	objs := antiObjects(sc.batchObjects, sc.dim, newRand(cfg.seed, streamObjects))
	setup := &setupMeter[*prefmatch.Server]{reps: sc.batchSetupReps, objects: len(objs), teardown: closeServer,
		build: func() (*prefmatch.Server, error) {
			return prefmatch.NewServer(objs, &prefmatch.Options{Backend: prefmatch.Memory})
		}}
	srv, err := setup.first()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	type client struct {
		qs   []prefmatch.Query
		dst  []prefmatch.Assignment
		offs []int
	}
	clients := make([]*client, sc.batchClients)
	for c := range clients {
		cl := &client{qs: make([]prefmatch.Query, sc.batchSize)}
		for j := range cl.qs {
			cl.qs[j].Weights = make([]float64, sc.dim)
		}
		clients[c] = cl
	}
	// fill loads batch i of a query stream into the client's buffers.
	fill := func(cl *client, stream int, i int64) {
		for j := range cl.qs {
			id := i*int64(sc.batchSize) + int64(j)
			cl.qs[j].ID = int(id)
			queryWeights(cfg.seed, stream, id, cl.qs[j].Weights)
		}
	}
	for i := 0; i < sc.warmup/sc.batchSize; i++ {
		cl := clients[0]
		fill(cl, streamWarmup, int64(i))
		if cl.dst, cl.offs, err = srv.TopKManyAppend(cl.dst[:0], cl.offs[:0], cl.qs, sc.k); err != nil {
			return nil, err
		}
	}

	// Every 16th batch of each client is kept for the oracle, up to a quota.
	const sampleEvery = 16
	type sample struct {
		client int
		batch  int64
		ans    [][]prefmatch.Assignment
	}
	quota := max(1, sc.oracleBatches/sc.batchClients)
	samples := make([][]sample, sc.batchClients)
	p := newPhase(cfg)
	before, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	loop := closedLoop(sc.batchClients, p.dur, p.traceAt, p.tr, "server.TopKManyAppend", func(c int, i int64) error {
		cl := clients[c]
		fill(cl, streamBatchClient0+c, i)
		var err error
		cl.dst, cl.offs, err = srv.TopKManyAppend(cl.dst[:0], cl.offs[:0], cl.qs, sc.k)
		if err == nil && i%sampleEvery == 0 && len(samples[c]) < quota {
			s := sample{client: c, batch: i}
			for j := range cl.qs {
				s.ans = append(s.ans, slices.Clone(cl.dst[cl.offs[j]:cl.offs[j+1]]))
			}
			samples[c] = append(samples[c], s)
		}
		return err
	})
	after, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = loop.attempted, loop.failed

	flat := slices.Concat(samples...)
	if cfg.corrupt && len(flat) > 0 {
		corruptAnswer(flat[0].ans[0])
	}
	res.mismatches += checkAll(len(flat), func(j int) bool {
		s := flat[j]
		for m, got := range s.ans {
			id := s.batch*int64(sc.batchSize) + int64(m)
			if !sameAnswer(got, oracleTopK(objs, query(cfg.seed, streamBatchClient0+s.client, id, sc.dim).Weights, sc.k)) {
				return false
			}
		}
		return true
	})
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d sampled batches of %d checked", len(flat), sc.batchSize))

	if err := setup.rest(); err != nil {
		return nil, err
	}
	setupS, bpo := setup.result()
	lat := loop.pick(0, all)
	finishE2E(res, setupS, bpo, lat, loop.completed()*int64(sc.batchSize), loop.elapsed, loop.cpu, loop.completed())
	res.add(&res.extra, "client.late_p90_us", "us", loop.late.pct(0.90))
	res.add(&res.extra, "error_frac", "ratio", float64(loop.failed)/float64(loop.attempted))
	if !cfg.trace {
		return res, nil
	}
	lv := layerValues{}
	lv.addProbes(before, after, loop.completed(), loop.completed())
	lv.addClient(lat, loop.pick(1, all), loop.late)
	rp := &replay{srv: srv, objs: objs, k: sc.k, nodeParity: true}
	for i := 0; i < sc.replay; i++ {
		rp.queries = append(rp.queries, query(cfg.seed, streamBatchClient0, int64(i), sc.dim))
	}
	err = finishTrace(cfg, res, p, lv, rp, "", nil, 0)
	return res, err
}

// runMatchAnti is the paper's problem: complete stable matchings of |F|
// linear functions to anti-correlated objects, wave after wave, by SB
// through Server.Match and by the Chain and Brute Force baselines over a
// fresh Memory index per wave (they consume it; building it is not timed).
func runMatchAnti(cfg config) (*result, error) {
	sc := cfg.scale
	res := &result{}
	objs := antiObjects(sc.matchObjects, sc.dim, newRand(cfg.seed, streamObjects))
	setup := &setupMeter[*prefmatch.Server]{reps: sc.matchSetupReps, objects: len(objs), teardown: closeServer,
		build: func() (*prefmatch.Server, error) {
			return prefmatch.NewServer(objs, &prefmatch.Options{Backend: prefmatch.Memory})
		}}
	srv, err := setup.first()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	wave := func(stream int, r int) []prefmatch.Query {
		qs := make([]prefmatch.Query, sc.matchFuncs)
		for j := range qs {
			qs[j] = query(cfg.seed, stream, int64(r*sc.matchFuncs+j), sc.dim)
			qs[j].ID = j
		}
		return qs
	}
	if _, err := srv.Match(wave(streamWarmup, 0), nil); err != nil {
		return nil, err
	}

	// runBaseline times one complete matching by a destructive algorithm
	// over its own freshly built index; the build is not timed.
	runBaseline := func(alg prefmatch.Algorithm, qs []prefmatch.Query) (*prefmatch.Result, time.Time, time.Time, time.Duration, error) {
		m, err := prefmatch.NewMatcher(objs, qs, &prefmatch.Options{Algorithm: alg, Backend: prefmatch.Memory})
		if err != nil {
			return nil, time.Time{}, time.Time{}, 0, err
		}
		out := &prefmatch.Result{Assignments: make([]prefmatch.Assignment, 0, len(qs))}
		cpu0 := cpuTime()
		ts := time.Now()
		for {
			a, ok, err := m.Next()
			if err != nil {
				return nil, ts, time.Now(), 0, err
			}
			if !ok {
				break
			}
			out.Assignments = append(out.Assignments, a)
		}
		te := time.Now()
		out.Stats = m.Stats()
		return out, ts, te, cpuTime() - cpu0, nil
	}

	const (
		sb = iota
		chain
		bf
	)
	algNames := [...]string{"sb", "chain", "bf"}
	spanNames := [...]string{"server.Match", "matcher.Chain", "matcher.BruteForce"}
	var (
		waveLat [3][2]latencies
		late    latencies
		loops   [3]int64
		top1    [3]int64
		evals   [3]int64
		waves   [3]int64
		sbTime  time.Duration
		cpu     time.Duration
		firstSB []prefmatch.Assignment
		firstQs []prefmatch.Query
	)
	p := newPhase(cfg)
	before, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	prevEnd := start
	for r := 0; time.Since(start) < p.dur; r++ {
		qs := wave(streamQueries, r)
		half := 0
		if time.Since(start) >= p.traceAt {
			half = 1
		}
		var got [3]*prefmatch.Result
		for alg := sb; alg <= bf; alg++ {
			var (
				out    *prefmatch.Result
				ts, te time.Time
				used   time.Duration
				err    error
			)
			if alg == sb {
				cpu0 := cpuTime()
				ts = time.Now()
				out, err = srv.Match(qs, nil)
				te = time.Now()
				used = cpuTime() - cpu0
			} else {
				a := prefmatch.Chain
				if alg == bf {
					a = prefmatch.BruteForce
				}
				out, ts, te, used, err = runBaseline(a, qs)
			}
			res.attempted++
			if err != nil {
				res.failed++
				waveLat[alg][half].add(failedLatency)
				continue
			}
			if half == 0 {
				late.add(ts.Sub(prevEnd))
			} else {
				p.tr.add(spanNames[alg], 0, int64(r), ts, te)
			}
			prevEnd = te
			cpu += used
			waveLat[alg][half].add(te.Sub(ts))
			waves[alg]++
			loops[alg] += out.Stats.Loops
			top1[alg] += out.Stats.Top1Searches
			evals[alg] += out.Stats.ScoreEvals
			if alg == sb {
				sbTime += te.Sub(ts)
			}
			got[alg] = out
		}
		if got[sb] == nil || got[chain] == nil || got[bf] == nil {
			continue
		}
		if cfg.corrupt && r == 0 {
			got[chain].Assignments[0].ObjectID = -1
		}
		if !sameMatching(got[sb].Assignments, got[chain].Assignments) || !sameMatching(got[sb].Assignments, got[bf].Assignments) {
			res.mismatches++
		}
		if firstQs == nil {
			for alg := sb; alg <= bf; alg++ {
				if err := prefmatch.Verify(objs, qs, got[alg].Assignments); err != nil {
					res.notes = append(res.notes, fmt.Sprintf("verify %s: %v", algNames[alg], err))
					res.mismatches++
				}
			}
			firstSB, firstQs = got[sb].Assignments, qs
		}
	}
	after, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("oracle: round 0 verified stable for sb, chain and bf; %d rounds compared sb = chain = bf", waves[sb]))

	if err := setup.rest(); err != nil {
		return nil, err
	}
	setupS, bpo := setup.result()
	sbLat := waveLat[sb][0]
	ops := waves[sb] + waves[chain] + waves[bf]
	finishE2E(res, setupS, bpo, sbLat, waves[sb]*int64(sc.matchFuncs), sbTime, cpu, ops)
	for alg := sb; alg <= bf; alg++ {
		res.add(&res.extra, algNames[alg]+"_wave_ms", "ms", waveLat[alg][0].pct(0.5)/1e3)
	}
	res.add(&res.extra, "client.late_p90_us", "us", late.pct(0.90))
	res.add(&res.extra, "error_frac", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	if !cfg.trace {
		return res, nil
	}
	lv := layerValues{}
	lv.addProbes(before, after, ops, 0)
	lv.addClient(sbLat, waveLat[sb][1], late)
	for alg := sb; alg <= bf; alg++ {
		n := float64(max(waves[alg], 1))
		lv["core.loops_per_wave."+algNames[alg]] = float64(loops[alg]) / n
		lv["core.score_evals_per_wave."+algNames[alg]] = float64(evals[alg]) / n
		if alg != sb { // the baselines match by repeated top-1 searches
			lv["core.top1_per_wave."+algNames[alg]] = float64(top1[alg]) / n
		}
	}
	// The paper's I/O metric: one untimed SB pass on the paged backend, which
	// must also reproduce the served matching.
	if firstQs != nil {
		paged, err := prefmatch.Match(objs, firstQs, nil)
		if err != nil {
			return nil, err
		}
		lv["paged.io_pages.sb"] = float64(paged.Stats.IOAccesses)
		if !sameMatching(paged.Assignments, firstSB) {
			res.mismatches++
			res.notes = append(res.notes, "paged SB pass disagrees with Server.Match")
		}
	}
	rp := &replay{srv: srv, objs: objs, k: sc.k, nodeParity: true}
	rp.queries = wave(streamQueries, 0)[:min(sc.replay, sc.matchFuncs)]
	err = finishTrace(cfg, res, p, lv, rp, "", nil, 0)
	return res, err
}

// churnSystem is session-churn's system under test: a live sharded Dynamic
// server and its open sessions.
type churnSystem struct {
	srv    *prefmatch.Server
	shared []*prefmatch.Session // on the shared default weights
	nudged []*prefmatch.Session
}

var defaultWeights = []float64{0.4, 0.3, 0.2, 0.1}

// runSessionChurn is the only workload with writes: one paced client mixes
// reads from sessions that share default weights (cache hits), reads from
// sessions that nudge their weights first (re-qualification or walks), cold
// top-k with fresh weights (the sharded fan-out) and updates of tail objects,
// each of which rotates the epoch under every reader.
func runSessionChurn(cfg config) (*result, error) {
	sc := cfg.scale
	res := &result{}
	d := sc.dim
	// objs is the benchmark's mirror of the live object set: every
	// acknowledged update is applied to it, so the oracle checks the final
	// state against it.
	objs := headHeavyObjects(sc.churnObjects, d, newRand(cfg.seed, streamObjects))
	// nudgedW holds each nudged session's current raw weights, which the
	// oracle checks its final answer against.
	nudgedW := make([][]float64, sc.churnNudged)
	rng := newRand(cfg.seed, streamSessions)
	for s := range nudgedW {
		nudgedW[s] = make([]float64, d)
		for j := range nudgedW[s] {
			nudgedW[s][j] = 0.05 + rng.Float64()
		}
	}
	build := func() (*churnSystem, error) {
		srv, err := prefmatch.NewServer(objs, &prefmatch.Options{
			Backend: prefmatch.Dynamic, Shards: sc.churnShards, MergeThreshold: sc.churnMerge,
		})
		if err != nil {
			return nil, err
		}
		sys := &churnSystem{srv: srv}
		for s := 0; s < sc.churnShared; s++ {
			sess, err := srv.OpenSession(prefmatch.Query{ID: s, Weights: defaultWeights})
			if err != nil {
				return nil, err
			}
			sys.shared = append(sys.shared, sess)
		}
		for s, w := range nudgedW {
			sess, err := srv.OpenSession(prefmatch.Query{ID: sc.churnShared + s, Weights: w})
			if err != nil {
				return nil, err
			}
			sys.nudged = append(sys.nudged, sess)
		}
		return sys, nil
	}
	setup := &setupMeter[*churnSystem]{reps: sc.churnSetupReps, objects: len(objs), build: build,
		teardown: func(s *churnSystem) { closeServer(s.srv) }}
	sys, err := setup.first()
	if err != nil {
		return nil, err
	}
	srv := sys.srv
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dst := make([]prefmatch.Assignment, 0, sc.k)
	for _, sess := range append(slices.Clone(sys.shared), sys.nudged...) {
		if dst, err = sess.TopKAppendContext(ctx, dst[:0], sc.k); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.warmup; i++ {
		if _, err := srv.TopKContext(ctx, query(cfg.seed, streamWarmup, int64(i), d), sc.k); err != nil {
			return nil, err
		}
	}

	const (
		kindShared = iota
		kindNudged
		kindCold
		kindWrite
	)
	kinds := []opKind{
		{span: "session.TopKAppendContext"},
		{span: "session.Nudge+TopKAppendContext"},
		{span: "server.TopKContext"},
		{span: "server.UpdateContext", write: true},
	}
	// Each operation's draws come from a pure function of (seed, op index):
	// u[0] picks the kind, u[1] the session or object, u[2:2+d] the nudge or
	// the cold weights, u[2+d:] an updated object's values.
	u := make([]float64, 2+2*d)
	cold := prefmatch.Query{Weights: make([]float64, d)}
	var coldSeen []prefmatch.Query // the phase's first cold queries, replayed and re-checked later
	keepCold := max(sc.oracleCold, sc.replay)
	p := newPhase(cfg)
	before, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	loop := openLoop(sc.churnRate, p.dur, p.traceAt, p.tr, kinds, func(i int64) (int, error) {
		queryWeights(cfg.seed, streamChurnOps, i, u)
		pick := func(n int) int { return min(int(u[1]*float64(n)), n-1) }
		var err error
		switch pct := u[0] * 100; {
		case pct < 35:
			dst, err = sys.shared[pick(len(sys.shared))].TopKAppendContext(ctx, dst[:0], sc.k)
			return kindShared, err
		case pct < 70:
			s := pick(len(sys.nudged))
			w := nudgedW[s]
			for j := range w {
				w[j] *= 1 + nudgeFrac*(2*u[2+j]-1)
			}
			if err = sys.nudged[s].Nudge(w); err == nil {
				dst, err = sys.nudged[s].TopKAppendContext(ctx, dst[:0], sc.k)
			}
			return kindNudged, err
		case pct < 99:
			cold.ID = int(i)
			copy(cold.Weights, u[2:2+d])
			_, err = srv.TopKContext(ctx, cold, sc.k)
			if err == nil && len(coldSeen) < keepCold {
				coldSeen = append(coldSeen, prefmatch.Query{ID: cold.ID, Weights: slices.Clone(cold.Weights)})
			}
			return kindCold, err
		default:
			id := headCount + pick(len(objs)-headCount)
			vals := make([]float64, d)
			for j := range vals {
				vals[j] = u[2+d+j] * tailMax
			}
			if err = srv.UpdateContext(ctx, prefmatch.Object{ID: id, Values: vals}); err == nil {
				objs[id].Values = vals
			}
			return kindWrite, err
		}
	})
	after, err := takeProbe(srv)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = loop.attempted, loop.failed

	// Fold the write tier in, then check every session and the cold queries
	// against the mirror.
	if err := srv.Compact(); err != nil {
		return nil, err
	}
	type check struct {
		got []prefmatch.Assignment
		w   []float64
	}
	var checks []check
	for _, sess := range sys.shared {
		a, err := sess.TopK(sc.k)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check{a, defaultWeights})
	}
	for s, sess := range sys.nudged {
		a, err := sess.TopK(sc.k)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check{a, nudgedW[s]})
	}
	for _, q := range coldSeen[:min(len(coldSeen), sc.oracleCold)] {
		a, err := srv.TopK(q, sc.k)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check{a, q.Weights})
	}
	if cfg.corrupt && len(checks) > 0 {
		corruptAnswer(checks[0].got)
	}
	res.mismatches += checkAll(len(checks), func(j int) bool {
		return sameAnswer(checks[j].got, oracleTopK(objs, checks[j].w, sc.k))
	})
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d sessions and %d cold queries checked after Compact", len(sys.shared)+len(sys.nudged), len(checks)-len(sys.shared)-len(sys.nudged)))

	if err := setup.rest(); err != nil {
		return nil, err
	}
	setupS, bpo := setup.result()
	isRead := func(k int) bool { return !kinds[k].write }
	isWrite := func(k int) bool { return kinds[k].write }
	lat := loop.pick(0, isRead)
	finishE2E(res, setupS, bpo, lat, loop.completed(), loop.elapsed, loop.cpu, loop.completed())
	res.add(&res.extra, "write_p90_us", "us", loop.pick(0, isWrite).pct(0.90))
	res.add(&res.extra, "client.late_p90_us", "us", loop.late.pct(0.90))
	res.add(&res.extra, "index.merge_ms_p50", "ms", histQuantileMs(before.scr, after.scr, "pm_merge_seconds", 0.5))
	res.add(&res.extra, "index.merge_pause_ms_p50", "ms", histQuantileMs(before.scr, after.scr, "pm_merge_pause_seconds", 0.5))
	res.add(&res.extra, "error_frac", "ratio", float64(loop.failed)/float64(loop.attempted))
	if !cfg.trace {
		return res, nil
	}
	reads := int64(len(loop.pick(0, isRead)) + len(loop.pick(1, isRead)))
	lv := layerValues{}
	lv.addProbes(before, after, loop.completed(), reads)
	lv.addClient(lat, loop.pick(1, isRead), loop.late)
	rp := &replay{srv: srv, objs: objs, k: sc.k}
	rp.queries = coldSeen[:min(len(coldSeen), sc.replay)]
	err = finishTrace(cfg, res, p, lv, rp, "", nil, 0)
	return res, err
}
