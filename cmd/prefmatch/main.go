// Command prefmatch is the operational CLI for the library: generate
// datasets, run matchings, and verify results, all over simple CSV files.
//
//	prefmatch generate -kind zillow -n 10000 -out objects.csv
//	prefmatch genqueries -n 500 -d 5 -out queries.csv
//	prefmatch match -objects objects.csv -queries queries.csv -alg sb -out pairs.csv
//	prefmatch match -objects objects.csv -queries queries.csv -backend memory -out pairs.csv
//	prefmatch topk -objects objects.csv -queries queries.csv -k 5 -parallel 8 -out top.csv
//	prefmatch verify -objects objects.csv -queries queries.csv -pairs pairs.csv
//	prefmatch serve -n 20000 -admin 127.0.0.1:8080 -duration 30s
//
// The serve subcommand runs a long-lived server under a built-in synthetic
// load loop and exposes the observability surface over HTTP: /metrics
// (Prometheus text), /statsz (JSON), /healthz, and /debug/pprof. It is the
// operational smoke test for the metrics pipeline — point a browser or
// curl at the admin address while it runs. -write-rate mixes live Updates
// into the load (requires -backend dyn), -slow arms the slow-query log,
// and -duration bounds the run (0 serves until interrupted).
//
// The match subcommand runs on the paged backend by default (the paper's
// disk simulation, whose stderr stats report I/O accesses); -backend memory
// selects the in-memory serving backend, which computes the identical
// matching several times faster and reports zero I/O. -backend dyn selects
// the live-mutable delta-tier backend — identical results again; for a
// one-shot CLI matching it only matters as an end-to-end check of the
// dynamic read path, since nothing mutates the index mid-run.
//
// The topk subcommand is the serving workload: every query independently
// gets its personal top-k ranking over one shared in-memory index, fanned
// across -parallel worker goroutines (0 = all CPUs). It reports throughput
// in queries/sec on stderr.
//
// Both match and topk accept -shards N -shard-by spatial|hash|rr to split
// the object index across N sub-indexes (the sharded composite backend);
// topk then walks the composite once per chunk of queries, skipping every
// shard whose bounding box cannot reach an answer (reported as
// shardsPruned on stderr); -parallel spreads those chunks. match walks the
// composite like any other tree. The results are bit-identical to the
// unsharded run in every mode.
//
// CSV rows are "id,v1,v2,...". Run any subcommand with -h for its flags.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"prefmatch"
	"prefmatch/internal/csvio"
	"prefmatch/internal/dataset"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "genqueries":
		err = cmdGenQueries(os.Args[2:])
	case "match":
		err = cmdMatch(os.Args[2:])
	case "topk":
		err = cmdTopK(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "prefmatch: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefmatch:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prefmatch <subcommand> [flags]

subcommands:
  generate    generate an object dataset (independent, anti, correlated, clustered, zillow)
  genqueries  generate linear preference queries
  match       compute the stable matching between objects and queries
  topk        answer each query's top-k independently over one shared index
  serve       run a server under synthetic load with the admin HTTP endpoints
  verify      check that a pairs file is the stable matching
  help        show this message`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "independent", "independent | anti | correlated | clustered | zillow")
	n := fs.Int("n", 10000, "number of objects")
	d := fs.Int("d", 3, "dimensionality (ignored for zillow, which is 5-D)")
	k := fs.Int("clusters", 8, "cluster count (clustered only)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var objs []prefmatch.Object
	emit := func(id int, vals []float64) {
		objs = append(objs, prefmatch.Object{ID: id, Values: vals})
	}
	switch *kind {
	case "independent":
		for _, it := range dataset.Independent(*n, *d, *seed) {
			emit(int(it.ID), it.Point)
		}
	case "anti":
		for _, it := range dataset.AntiCorrelated(*n, *d, *seed) {
			emit(int(it.ID), it.Point)
		}
	case "correlated":
		for _, it := range dataset.Correlated(*n, *d, *seed) {
			emit(int(it.ID), it.Point)
		}
	case "clustered":
		for _, it := range dataset.Clustered(*n, *d, *k, *seed) {
			emit(int(it.ID), it.Point)
		}
	case "zillow":
		for _, it := range dataset.Zillow(*n, *seed) {
			emit(int(it.ID), it.Point)
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	w, closeFn, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	return csvio.WriteObjects(w, objs)
}

func cmdGenQueries(args []string) error {
	fs := flag.NewFlagSet("genqueries", flag.ExitOnError)
	n := fs.Int("n", 500, "number of queries")
	d := fs.Int("d", 3, "dimensionality")
	seed := fs.Int64("seed", 2, "random seed")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	qs := make([]prefmatch.Query, 0, *n)
	for _, f := range dataset.Functions(*n, *d, *seed) {
		qs = append(qs, prefmatch.Query{ID: f.ID, Weights: f.Weights})
	}
	w, closeFn, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	return csvio.WriteQueries(w, qs)
}

func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	objPath := fs.String("objects", "", "objects CSV (required)")
	qPath := fs.String("queries", "", "queries CSV (required)")
	alg := fs.String("alg", "sb", "sb | bf | chain")
	backend := fs.String("backend", "paged", "paged (paper-metric I/O simulation) | memory (fastest wall-clock) | dyn (live-mutable delta tier)")
	maint := fs.String("maintenance", "plist", "plist | retraverse | recompute (sb only)")
	pageSize := fs.Int("page", 4096, "page size in bytes")
	bufFrac := fs.Float64("buffer-frac", 0.02, "LRU buffer fraction of tree size")
	noMulti := fs.Bool("no-multipair", false, "disable multi-pair emission (sb only)")
	naiveTA := fs.Bool("naive-threshold", false, "use the naive TA threshold (sb only)")
	shards := fs.Int("shards", 0, "shard the object index across N sub-indexes (0 = single index)")
	shardBy := fs.String("shard-by", "spatial", "spatial | hash | rr (partitioner when -shards > 0)")
	out := fs.String("out", "", "pairs CSV output (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *objPath == "" || *qPath == "" {
		return fmt.Errorf("match: -objects and -queries are required")
	}
	objects, err := readObjects(*objPath)
	if err != nil {
		return err
	}
	queries, err := readQueries(*qPath)
	if err != nil {
		return err
	}
	opts := &prefmatch.Options{
		PageSize:              *pageSize,
		BufferFraction:        *bufFrac,
		DisableMultiPair:      *noMulti,
		DisableTightThreshold: *naiveTA,
	}
	switch *alg {
	case "sb":
		opts.Algorithm = prefmatch.SkylineBased
	case "bf":
		opts.Algorithm = prefmatch.BruteForce
	case "chain":
		opts.Algorithm = prefmatch.Chain
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	switch *backend {
	case "paged":
		opts.Backend = prefmatch.Paged
	case "memory", "mem":
		opts.Backend = prefmatch.Memory
	case "dyn", "dynamic":
		opts.Backend = prefmatch.Dynamic
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}
	switch *maint {
	case "plist":
		opts.Maintenance = prefmatch.MaintainPlist
	case "retraverse":
		opts.Maintenance = prefmatch.MaintainRetraverse
	case "recompute":
		opts.Maintenance = prefmatch.MaintainRecompute
	default:
		return fmt.Errorf("unknown maintenance mode %q", *maint)
	}
	opts.Shards = *shards
	if opts.ShardBy, err = parseShardBy(*shardBy); err != nil {
		return err
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	res, err := prefmatch.Match(objects, queries, opts)
	if err != nil {
		return err
	}
	w, closeFn, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	if err := csvio.WriteAssignments(w, res.Assignments); err != nil {
		return err
	}
	s := res.Stats
	fmt.Fprintf(os.Stderr, "pairs=%d io=%d (r=%d w=%d hits=%d) top1=%d ta=%d skyUpdates=%d skyMax=%d loops=%d elapsed=%v\n",
		s.Pairs, s.IOAccesses, s.PageReads, s.PageWrites, s.BufferHits,
		s.Top1Searches, s.TAListAccesses, s.SkylineUpdates, s.SkylineMax, s.Loops, s.Elapsed)
	return nil
}

func cmdTopK(args []string) error {
	fs := flag.NewFlagSet("topk", flag.ExitOnError)
	objPath := fs.String("objects", "", "objects CSV (required)")
	qPath := fs.String("queries", "", "queries CSV (required)")
	k := fs.Int("k", 1, "results per query")
	parallel := fs.Int("parallel", 1, "worker goroutines (0 = all CPUs)")
	pageSize := fs.Int("page", 4096, "virtual page size (node fan-outs)")
	shards := fs.Int("shards", 0, "shard the index across N sub-indexes with MBR-pruned per-shard search (0 = single index)")
	shardBy := fs.String("shard-by", "spatial", "spatial | hash | rr (partitioner when -shards > 0)")
	out := fs.String("out", "", "results CSV output (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *objPath == "" || *qPath == "" {
		return fmt.Errorf("topk: -objects and -queries are required")
	}
	objects, err := readObjects(*objPath)
	if err != nil {
		return err
	}
	queries, err := readQueries(*qPath)
	if err != nil {
		return err
	}
	sopts := &prefmatch.Options{PageSize: *pageSize, Shards: *shards}
	if sopts.ShardBy, err = parseShardBy(*shardBy); err != nil {
		return err
	}
	if err := sopts.Validate(); err != nil {
		return err
	}
	srv, err := prefmatch.NewServer(objects, sopts)
	if err != nil {
		return err
	}
	workers := *parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	results, err := srv.TopKMany(queries, *k, workers)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	flat := make([]prefmatch.Assignment, 0, len(queries)**k)
	for _, rs := range results {
		flat = append(flat, rs...)
	}
	w, closeFn, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	if err := csvio.WriteAssignments(w, flat); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "queries=%d k=%d workers=%d shards=%d elapsed=%v throughput=%.0f queries/s shardsPruned=%d\n",
		len(queries), *k, workers, *shards, elapsed, float64(len(queries))/elapsed.Seconds(),
		srv.Stats().ShardsPruned)
	return nil
}

// cmdServe runs a Server under a built-in synthetic load loop with the
// admin HTTP endpoints up, so the whole observability surface — latency
// histograms, work counters, dynamic-tier gauges, slow-query log — can be
// scraped live. This is what the CI smoke step drives.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	objPath := fs.String("objects", "", "objects CSV (default: generate -n independent objects)")
	n := fs.Int("n", 20000, "generated object count when -objects is not given")
	d := fs.Int("d", 4, "generated dimensionality when -objects is not given")
	seed := fs.Int64("seed", 1, "random seed for generated data and load")
	k := fs.Int("k", 10, "results per query in the load loop")
	backend := fs.String("backend", "memory", "memory | dyn (live-mutable delta tier)")
	shards := fs.Int("shards", 0, "shard the index across N sub-indexes (0 = single index)")
	shardBy := fs.String("shard-by", "spatial", "spatial | hash | rr (partitioner when -shards > 0)")
	adminAddr := fs.String("admin", "127.0.0.1:8080", "admin HTTP address (/metrics, /statsz, /healthz, /debug/pprof)")
	duration := fs.Duration("duration", 0, "how long to serve (0 = until interrupted)")
	writeRate := fs.Float64("write-rate", 0, "fraction of load operations that are live Updates (requires -backend dyn)")
	slow := fs.Duration("slow", 0, "slow-query threshold: matching requests dump a stage breakdown to stderr (0 = off)")
	maxInflight := fs.Int("max-inflight", 0, "admission gate: concurrent requests beyond this are shed with ErrOverloaded (0 = unbounded)")
	drainTimeout := fs.Duration("drain-timeout", 0, "graceful-shutdown bound for in-flight requests and merges (0 = the 5s default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		objects []prefmatch.Object
		err     error
	)
	if *objPath != "" {
		if objects, err = readObjects(*objPath); err != nil {
			return err
		}
	} else {
		for _, it := range dataset.Independent(*n, *d, *seed) {
			objects = append(objects, prefmatch.Object{ID: int(it.ID), Values: it.Point})
		}
	}
	if len(objects) == 0 {
		return fmt.Errorf("serve: no objects")
	}
	dim := len(objects[0].Values)

	opts := &prefmatch.Options{
		Shards:       *shards,
		AdminAddr:    *adminAddr,
		MaxInFlight:  *maxInflight,
		DrainTimeout: *drainTimeout,
	}
	switch *backend {
	case "memory", "mem":
		opts.Backend = prefmatch.Memory
	case "dyn", "dynamic":
		opts.Backend = prefmatch.Dynamic
	default:
		return fmt.Errorf("serve: unknown backend %q", *backend)
	}
	if *writeRate > 0 && opts.Backend != prefmatch.Dynamic {
		return fmt.Errorf("serve: -write-rate requires -backend dyn")
	}
	if opts.ShardBy, err = parseShardBy(*shardBy); err != nil {
		return err
	}
	if *slow > 0 {
		opts.SlowQueryThreshold = *slow
		opts.SlowQueryLog = os.Stderr
	}
	// Fail on bad flag combinations before any indexing work; the error
	// names the offending Options field.
	if err := opts.Validate(); err != nil {
		return err
	}
	srv, err := prefmatch.NewServer(objects, opts)
	if err != nil {
		return err
	}
	// Shutdown is explicit below (the SIGINT/SIGTERM drain); this defer
	// only covers early error returns — Close is idempotent.
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serving %d objects (D=%d, backend=%s) — admin on http://%s\n",
		len(objects), dim, *backend, srv.AdminAddr())

	var queries []prefmatch.Query
	for _, f := range dataset.Functions(1024, dim, *seed+1) {
		queries = append(queries, prefmatch.Query{ID: f.ID, Weights: f.Weights})
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if *duration > 0 {
			select {
			case <-time.After(*duration):
			case <-sig:
			}
		} else {
			<-sig
		}
		close(stop)
	}()

	rng := rand.New(rand.NewSource(*seed + 7))
	report := func() {
		p50, _ := srv.LatencyQuantile("topk", 0.50)
		p99, _ := srv.LatencyQuantile("topk", 0.99)
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "served=%d p50=%v p99=%v epoch=%d delta=%d merges=%d shed=%d canceled=%d panics=%d\n",
			srv.Served(), p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			st.Epoch, st.DeltaSize, st.MergesCompleted, st.Shed, st.Canceled, st.Panics)
	}
	// drain runs the real shutdown lifecycle on SIGINT/SIGTERM or -duration
	// expiry: refuse new requests, wait out in-flight ones, quiesce and
	// fold in the write tier, then stop the admin server.
	drain := func() error {
		fmt.Fprintln(os.Stderr, "draining (in-flight requests, pending merges) ...")
		start := time.Now()
		err := srv.Close()
		fmt.Fprintf(os.Stderr, "drained in %v\n", time.Since(start).Round(time.Millisecond))
		report()
		return err
	}
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return drain()
		case <-ticker.C:
			report()
		default:
		}
		if *writeRate > 0 && rng.Float64() < *writeRate {
			obj := objects[rng.Intn(len(objects))]
			vals := append([]float64(nil), obj.Values...)
			vals[i%dim] = rng.Float64()
			obj.Values = vals
			if err := srv.Update(obj); err != nil {
				return err
			}
			continue
		}
		if _, err := srv.TopK(queries[i%len(queries)], *k); err != nil {
			return err
		}
	}
}

// parseShardBy maps the -shard-by flag to the public selector.
func parseShardBy(s string) (prefmatch.ShardBy, error) {
	switch s {
	case "spatial":
		return prefmatch.ShardSpatial, nil
	case "hash":
		return prefmatch.ShardHash, nil
	case "rr", "roundrobin":
		return prefmatch.ShardRoundRobin, nil
	default:
		return 0, fmt.Errorf("unknown shard partitioner %q", s)
	}
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	objPath := fs.String("objects", "", "objects CSV (required)")
	qPath := fs.String("queries", "", "queries CSV (required)")
	pairsPath := fs.String("pairs", "", "pairs CSV (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *objPath == "" || *qPath == "" || *pairsPath == "" {
		return fmt.Errorf("verify: -objects, -queries and -pairs are required")
	}
	objects, err := readObjects(*objPath)
	if err != nil {
		return err
	}
	queries, err := readQueries(*qPath)
	if err != nil {
		return err
	}
	assignments, err := readAssignments(*pairsPath)
	if err != nil {
		return err
	}
	if err := prefmatch.Verify(objects, queries, assignments); err != nil {
		return err
	}
	fmt.Println("OK: the matching is stable and complete")
	return nil
}

func openOut(path string) (*os.File, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func readObjects(path string) ([]prefmatch.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csvio.ReadObjects(f)
}

func readQueries(path string) ([]prefmatch.Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csvio.ReadQueries(f)
}

func readAssignments(path string) ([]prefmatch.Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csvio.ReadAssignments(f)
}
