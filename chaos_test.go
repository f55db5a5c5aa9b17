// Chaos suite: the production-hardening guarantees under injected faults.
// Every test drives the real serving stack over the faulty wrapper (or a
// parked dynamic merge) and pins one robustness contract: deadlines fire
// mid-traversal without leaking pooled searchers, shed requests never
// touch a snapshot, a panic inside one request's traversal fails only that
// request, and Close returns within its bound even with a merge parked
// mid-flight.
// The suite is written to run under -race; CI runs it that way.
package prefmatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"prefmatch/internal/guard"
	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/faulty"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/sharded"
)

// chaosObjects derives a deterministic object set.
func chaosObjects(n, d int) []Object {
	rng := rand.New(rand.NewSource(42))
	objs := make([]Object, n)
	for i := range objs {
		vals := make([]float64, d)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		objs[i] = Object{ID: i, Values: vals}
	}
	return objs
}

func chaosQuery(id int) Query { return Query{ID: id, Weights: []float64{0.7, 0.3}} }

// newFaultyServer builds an unsharded server whose memory index is wrapped
// in the fault injector, so every snapshot pin and stream refill is
// observable and poisonable.
func newFaultyServer(t *testing.T, n int, opts *Options) (*Server, *faulty.Index) {
	t.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.SlowQueryLog == nil {
		opts.SlowQueryLog = io.Discard // keep injected panic stacks out of test output
	}
	d, items, caps, err := convertObjectSet(chaosObjects(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	fix := faulty.Wrap(inner)
	srv, err := newServer(fix, caps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, fix
}

// newFaultyShardedServer builds a sharded server with every shard wrapped
// in its own fault injector, so a single shard can be made slow or
// poisoned while the others stay healthy.
func newFaultyShardedServer(t *testing.T, n, shards int, opts *Options) (*Server, []*faulty.Index) {
	t.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.SlowQueryLog == nil {
		opts.SlowQueryLog = io.Discard
	}
	d, items, caps, err := convertObjectSet(chaosObjects(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	fixs := make([]*faulty.Index, shards)
	ix, err := sharded.Build(d, items, &sharded.Options{
		Shards: shards,
		WrapShard: func(s int, inner index.ObjectIndex) index.ObjectIndex {
			f := faulty.Wrap(inner)
			fixs[s] = f
			return f
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, caps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, fixs
}

// topShard picks the shard whose bounding box scores highest under q. A
// ranked walk over the composite pops the synthetic root's shard entries in
// descending bound order, so the top shard is entered first by every
// request for q, on any core count, and a fault injected there always
// fires. The bound is computed through the live index's reads
// (SiteRead), leaving the snapshot counters untouched.
func topShard(t *testing.T, fixs []*faulty.Index, q Query) int {
	t.Helper()
	best, bestBound := -1, math.Inf(-1)
	for s, fix := range fixs {
		if fix.Len() == 0 {
			continue
		}
		root, err := fix.ReadNode(fix.RootPage())
		if err != nil {
			t.Fatal(err)
		}
		hi := make([]float64, fix.Dim())
		for j := range hi {
			hi[j] = math.Inf(-1)
		}
		for i := 0; i < root.Len(); i++ {
			var p []float64
			if root.Leaf() {
				p = root.Object(i).Point
			} else {
				p = root.Rect(i).Hi
			}
			for j := range hi {
				hi[j] = max(hi[j], p[j])
			}
		}
		bound := 0.0
		for j, w := range q.Weights {
			bound += w * hi[j]
		}
		if bound > bestBound {
			best, bestBound = s, bound
		}
	}
	return best
}

// A 50ms deadline over a sharded top-k with one 500ms-slow shard must come
// back with ErrDeadlineExceeded — not hang until the slow shard finishes
// its whole search, and not leak the pooled searchers it armed.
func TestChaosDeadlineOnSlowShard(t *testing.T) {
	// 1000 objects per shard: every shard is a root over several leaves, so
	// the deadline fires between node reads, mid-walk, not after a
	// single-leaf shard's only read.
	srv, fixs := newFaultyShardedServer(t, 4000, 4, nil)
	slow := topShard(t, fixs, chaosQuery(1))
	if root, err := fixs[slow].ReadNode(fixs[slow].RootPage()); err != nil || root.Leaf() {
		t.Fatalf("slow shard is a single leaf (err %v): the deadline cannot land mid-walk", err)
	}
	fixs[slow].Inject(faulty.SiteRefill, faulty.Fault{Latency: 500 * time.Millisecond})

	ctx, cancelFn := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelFn()
	start := time.Now()
	_, err := srv.TopKContext(ctx, chaosQuery(1), 10)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("TopKContext over slow shard: err = %v, want ErrDeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "abandoned at") {
		t.Fatalf("deadline error does not name its stage: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to surface — the request effectively hung", elapsed)
	}
	if got := srv.Stats().Canceled; got < 1 {
		t.Fatalf("Stats.Canceled = %d after a deadline, want >= 1", got)
	}

	// The pooled searchers the canceled walk released must be clean:
	// subsequent requests reuse them and must succeed.
	fixs[slow].Clear(faulty.SiteRefill)
	for i := 0; i < 20; i++ {
		if _, err := srv.TopK(chaosQuery(i), 5); err != nil {
			t.Fatalf("TopK %d after canceled walk: %v", i, err)
		}
	}
}

// A deadline firing mid-traversal on the unsharded wave loop must surface
// as ErrDeadlineExceeded through Match as well.
func TestChaosDeadlineMidWave(t *testing.T) {
	srv, fix := newFaultyServer(t, 400, nil)
	fix.Inject(faulty.SiteRefill, faulty.Fault{Latency: 50 * time.Millisecond})

	ctx, cancelFn := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelFn()
	_, err := srv.MatchContext(ctx, []Query{chaosQuery(1), chaosQuery(2)}, nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("MatchContext: err = %v, want ErrDeadlineExceeded", err)
	}
	fix.Clear(faulty.SiteRefill)
	if _, err := srv.Match([]Query{chaosQuery(1)}, nil); err != nil {
		t.Fatalf("Match after canceled wave: %v", err)
	}
}

// A request refused by the admission gate must fail with ErrOverloaded
// before touching any snapshot: no pin, no refill, nothing.
func TestChaosShedNeverTouchesSnapshot(t *testing.T) {
	srv, fix := newFaultyServer(t, 300, &Options{MaxInFlight: 1})
	// Park one request inside the gate: its first stream refill sleeps.
	fix.Inject(faulty.SiteRefill, faulty.Fault{Latency: 700 * time.Millisecond, Times: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.TopK(chaosQuery(1), 5); err != nil {
			t.Errorf("parked TopK: %v", err)
		}
	}()
	for fix.Fired(faulty.SiteRefill) == 0 {
		time.Sleep(time.Millisecond)
	}

	pins, refills := fix.Calls(faulty.SitePin), fix.Calls(faulty.SiteRefill)
	_, err := srv.TopK(chaosQuery(2), 5)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("gated TopK: err = %v, want ErrOverloaded", err)
	}
	if got := fix.Calls(faulty.SitePin); got != pins {
		t.Fatalf("shed request pinned a snapshot: SitePin calls %d -> %d", pins, got)
	}
	if got := fix.Calls(faulty.SiteRefill); got != refills {
		t.Fatalf("shed request read a node: SiteRefill calls %d -> %d", refills, got)
	}
	if got := srv.Stats().Shed; got != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", got)
	}
	wg.Wait()
}

// A context canceled before the call starts must be refused at admission by
// every *Context method, reads and writes alike: the error names the
// admission stage, Stats().Canceled counts the call, and the request pins
// no snapshot, reads no node and applies no write. Each call runs against a
// static server wrapped in the fault injector (whose counters observe pins
// and reads) and against a Dynamic server (where a write would land).
func TestChaosCanceledBeforeAdmission(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	q := chaosQuery(1)
	obj := Object{ID: 7, Values: []float64{0.5, 0.5}}
	calls := []struct {
		name string
		call func(s *Server, sess *Session) error
	}{
		{"MatchContext", func(s *Server, _ *Session) error {
			_, err := s.MatchContext(ctx, []Query{q}, nil)
			return err
		}},
		{"MatchManyContext", func(s *Server, _ *Session) error {
			_, err := s.MatchManyContext(ctx, [][]Query{{q}, {chaosQuery(2)}}, nil, 2)
			return err
		}},
		{"TopKContext", func(s *Server, _ *Session) error {
			_, err := s.TopKContext(ctx, q, 5)
			return err
		}},
		{"TopKMonotoneContext", func(s *Server, _ *Session) error {
			_, err := s.TopKMonotoneContext(ctx, PreferenceQuery{ID: 1, Preference: LinearPreference{Weights: q.Weights}}, 5)
			return err
		}},
		{"TopKPrefContext", func(s *Server, _ *Session) error {
			_, err := s.TopKPrefContext(ctx, q, 5)
			return err
		}},
		{"TopKManyContext", func(s *Server, _ *Session) error {
			_, err := s.TopKManyContext(ctx, []Query{q, chaosQuery(2)}, 5, 2)
			return err
		}},
		{"TopKManyAppendContext", func(s *Server, _ *Session) error {
			_, _, err := s.TopKManyAppendContext(ctx, nil, nil, []Query{q, chaosQuery(2)}, 5)
			return err
		}},
		{"SkylineContext", func(s *Server, _ *Session) error {
			_, err := s.SkylineContext(ctx)
			return err
		}},
		{"InsertContext", func(s *Server, _ *Session) error {
			return s.InsertContext(ctx, Object{ID: 1000, Values: []float64{0.5, 0.5}})
		}},
		{"UpdateContext", func(s *Server, _ *Session) error { return s.UpdateContext(ctx, obj) }},
		{"RemoveContext", func(s *Server, _ *Session) error { return s.RemoveContext(ctx, obj.ID) }},
		{"CompactContext", func(s *Server, _ *Session) error { return s.CompactContext(ctx) }},
		{"Session.TopKContext", func(_ *Server, sess *Session) error {
			_, err := sess.TopKContext(ctx, 5)
			return err
		}},
		{"Session.TopKAppendContext", func(_ *Server, sess *Session) error {
			_, err := sess.TopKAppendContext(ctx, nil, 5)
			return err
		}},
	}

	static, fix := newFaultyServer(t, 100, nil)
	dyn, err := NewServer(chaosObjects(100, 2), &Options{Backend: Dynamic, SlowQueryLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// One write ahead of the table leaves a resident delta for Compact.
	if err := dyn.Update(Object{ID: 3, Values: []float64{0.25, 0.75}}); err != nil {
		t.Fatal(err)
	}
	for _, srv := range []struct {
		name string
		s    *Server
		fix  *faulty.Index
	}{{"static", static, fix}, {"dynamic", dyn, nil}} {
		sess, err := srv.s.OpenSession(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			before := srv.s.Stats()
			var pins, reads, refills int64
			if srv.fix != nil {
				pins, reads, refills = srv.fix.Calls(faulty.SitePin), srv.fix.Calls(faulty.SiteRead), srv.fix.Calls(faulty.SiteRefill)
			}
			err := c.call(srv.s, sess)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s %s: err = %v, want ErrCanceled", srv.name, c.name, err)
			}
			if !strings.Contains(err.Error(), "admission") {
				t.Fatalf("%s %s: error does not name the admission stage: %v", srv.name, c.name, err)
			}
			after := srv.s.Stats()
			if after.Canceled != before.Canceled+1 {
				t.Fatalf("%s %s: Stats().Canceled %d -> %d, want one more", srv.name, c.name, before.Canceled, after.Canceled)
			}
			if after.Epoch != before.Epoch || after.DeltaSize != before.DeltaSize || srv.s.Len() != 100 {
				t.Fatalf("%s %s: canceled call changed the index: epoch %d -> %d, delta %d -> %d, len %d",
					srv.name, c.name, before.Epoch, after.Epoch, before.DeltaSize, after.DeltaSize, srv.s.Len())
			}
			if srv.fix != nil {
				if got := srv.fix.Calls(faulty.SitePin); got != pins {
					t.Fatalf("%s %s: canceled call pinned a snapshot: %d -> %d", srv.name, c.name, pins, got)
				}
				if r, f := srv.fix.Calls(faulty.SiteRead), srv.fix.Calls(faulty.SiteRefill); r != reads || f != refills {
					t.Fatalf("%s %s: canceled call read nodes: live %d -> %d, snapshot %d -> %d", srv.name, c.name, reads, r, refills, f)
				}
			}
		}
	}
}

// A panic injected into one shard's node reads must fail only that
// request — converted to an error naming the panic — while concurrent and
// subsequent requests stay healthy and the process stays up.
func TestChaosPanicIsolatedToRequest(t *testing.T) {
	srv, fixs := newFaultyShardedServer(t, 600, 4, nil)
	poisonShard := topShard(t, fixs, chaosQuery(1))
	fixs[poisonShard].Inject(faulty.SiteRefill, faulty.Fault{Panic: "chaos: injected", Times: 1})

	_, poisoned := srv.TopK(chaosQuery(1), 10)
	if poisoned == nil {
		t.Fatal("injected panic never surfaced as a request error")
	}
	var pe *guard.PanicError
	if !errors.As(poisoned, &pe) {
		t.Fatalf("poisoned request error is not a PanicError: %v", poisoned)
	}
	if fmt.Sprint(pe.Val) != "chaos: injected" {
		t.Fatalf("PanicError.Val = %v, want the injected value", pe.Val)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", got)
	}
	// The server keeps serving on the same pooled machinery.
	for i := 0; i < 20; i++ {
		if _, err := srv.TopK(chaosQuery(i), 5); err != nil {
			t.Fatalf("TopK %d after isolated panic: %v", i, err)
		}
	}
}

// A panic in one MatchMany wave worker fails the batch with a PanicError
// instead of crashing the process.
func TestChaosPanicInWaveWorker(t *testing.T) {
	srv, fix := newFaultyServer(t, 300, nil)
	fix.Inject(faulty.SiteRefill, faulty.Fault{Panic: "chaos: wave", Times: 1})
	waves := [][]Query{{chaosQuery(1)}, {chaosQuery(2)}, {chaosQuery(3)}}
	_, err := srv.MatchMany(waves, nil, 2)
	if err == nil {
		t.Fatal("MatchMany with a poisoned wave returned nil error")
	}
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MatchMany error is not a PanicError: %v", err)
	}
	fix.Clear(faulty.SiteRefill)
	if _, err := srv.MatchMany(waves, nil, 2); err != nil {
		t.Fatalf("MatchMany after isolated panic: %v", err)
	}
}

// Close during a merge parked mid-flight must return within its bound with
// an error naming the stuck merge — never deadlock.
func TestChaosCloseDuringParkedMerge(t *testing.T) {
	d, items, caps, err := convertObjectSet(chaosObjects(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	park := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	ix, err := dynamic.Build(d, items, &dynamic.Options{
		MergeThreshold: 4,
		OnMergeStage: func(stage string) {
			if stage == "built" {
				once.Do(func() { close(parked) })
				<-park
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, caps, &Options{DrainTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Cross the merge threshold so a background merge starts and parks.
	for i := 0; i < 8; i++ {
		if err := srv.Insert(Object{ID: 10_000 + i, Values: []float64{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	<-parked

	start := time.Now()
	cerr := srv.Close()
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("Close with a parked merge took %v, want within the drain bound", elapsed)
	}
	if cerr == nil || !strings.Contains(cerr.Error(), "merge still in flight") {
		t.Fatalf("Close with a parked merge: err = %v, want a merge-in-flight report", cerr)
	}
	close(park) // let the merge goroutine finish
}

// Close is idempotent, safe without an admin server, and flips the server
// into refusing reads and writes with ErrClosed.
func TestChaosCloseIdempotent(t *testing.T) {
	srv, err := NewServer(chaosObjects(100, 2), &Options{Backend: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := srv.TopK(chaosQuery(1), 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("TopK after Close: err = %v, want ErrClosed", err)
	}
	if err := srv.Insert(Object{ID: 9999, Values: []float64{0.1, 0.2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: err = %v, want ErrClosed", err)
	}
}

// Close's drain path folds a resident write tier into the base arena — the
// final Compact the interval trigger alone would never run on an idle
// index.
func TestChaosCloseCompactsResidentDelta(t *testing.T) {
	srv, err := NewServer(chaosObjects(100, 2), &Options{Backend: Dynamic, MergeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := srv.Insert(Object{ID: 10_000 + i, Values: []float64{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Stats().DeltaSize == 0 {
		t.Fatal("setup: delta empty before Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := srv.Stats().DeltaSize; got != 0 {
		t.Fatalf("DeltaSize = %d after Close, want 0 (final compact)", got)
	}
}

// Close racing live queries and writes: every request either completes or
// fails with ErrClosed; nothing deadlocks, nothing races (-race pins it).
func TestChaosConcurrentCloseVsTraffic(t *testing.T) {
	srv, err := NewServer(chaosObjects(400, 2), &Options{Backend: Dynamic, Shards: 2, MergeThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch {
				case w == 0:
					err = srv.Insert(Object{ID: 50_000 + i, Values: []float64{0.4, 0.6}})
				case w == 1 && i%3 == 0:
					err = srv.Compact()
				default:
					_, err = srv.TopK(chaosQuery(i), 5)
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("worker %d: unexpected error during close race: %v", w, err)
					return
				}
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close under traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	if _, err := srv.TopK(chaosQuery(1), 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("TopK after drained Close: err = %v, want ErrClosed", err)
	}
}

// /healthz walks the state machine: degraded while the admission gate is
// saturated, 503 draining once Close begins, gone after Close finishes.
func TestChaosHealthzStateMachine(t *testing.T) {
	srv, fix := newFaultyServer(t, 200, &Options{MaxInFlight: 1, AdminAddr: "127.0.0.1:0"})
	addr := srv.AdminAddr()
	get := func() (int, string) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	if code, body := get(); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthy healthz = %d %q, want 200 ok", code, body)
	}

	// Park a request so the gate saturates.
	fix.Inject(faulty.SiteRefill, faulty.Fault{Latency: 700 * time.Millisecond, Times: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.TopK(chaosQuery(1), 5)
	}()
	for fix.Fired(faulty.SiteRefill) == 0 {
		time.Sleep(time.Millisecond)
	}
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "degraded:") {
		t.Fatalf("saturated healthz = %d %q, want 200 degraded", code, body)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	// The drain holds while the parked request runs; healthz must say so.
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		code, body := get()
		if code == http.StatusServiceUnavailable && body == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz during drain = %d %q, want 503 draining", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if code, _ := get(); code != 0 {
		t.Fatalf("healthz after Close answered %d, want the admin listener gone", code)
	}
}

// Error taxonomy: the exported sentinels are what callers match on.
func TestChaosErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrCanceled, context.Canceled) {
		t.Fatal("ErrCanceled must match context.Canceled")
	}
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must match context.DeadlineExceeded")
	}
}
