package prefmatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/rescache"
	"prefmatch/internal/vec"
)

// This file is the Server's preference-session layer: a Session holds one
// user's evolving preference, answers TopK against the live index, and —
// for linear preferences — reuses its previous answer instead of walking
// the tree when it can prove the answer unchanged.
//
// # Incremental re-evaluation
//
// Answering top-k, a linear session walks deeper than asked — it retains
// n = 2k+8 candidates (sessionFetch) and remembers the n-th score as the
// threshold t: every live object outside the retained set scored ≤ t. When
// the weights are nudged from w to w', the session re-scores the n retained
// points under w' (one vec.DotBatch over n·d floats) and compares the
// re-scored k-th against the stale upper bound
//
//	t + Δ   where   Δ = vec.DeltaBound(w, w', rootLo, rootHi)
//
// No object inside the root's bounding box can gain more than Δ from the
// weight change, so if the re-scored k-th strictly beats t + Δ (plus a
// relative float-safety slack), the retained set provably still contains
// the exact top-k and the session serves it with no tree walk at all. The
// over-fetch is what gives the bound room to fire: with exactly k retained
// candidates the k-th re-scored candidate could never clear its own stale
// bound, while the gap between rank k and rank n absorbs real nudges. On a
// re-qualified serve the threshold inflates by Δ (the bound itself stays an
// outside bound), so repeated nudges degrade it gradually until a fallback
// walk refreshes the state. The fallback is the server's one ranked search
// (searchSnapshot), n deep over the pinned snapshot: a bounded best-first
// walk reads only the nodes whose bound reaches the final n-th score, so no
// floor carried over from the retained set could save it a read. Every path
// is exact: each session answer is bit-identical to a cold Server.TopK at
// the same epoch.
//
// # The result cache
//
// Linear sessions additionally share the server's epoch-keyed result cache
// (internal/rescache): answers are stored under (weights, k, epoch) and a
// later call with the same key — from this session or any other — is served
// straight from the cache. The snapshot epoch in the key makes every write
// invalidate the whole cache wholesale; see the rescache package doc.
//
// Monotone sessions (opened with a PreferenceQuery or any other Preference)
// have no weight fingerprint to key on and no delta bound, so every TopK
// walks; they exist so both query families share one session API.

// ErrSessionClosed is returned by every method of a closed Session —
// whether closed explicitly or by the server's Close.
var ErrSessionClosed = errors.New("prefmatch: session closed")

// errNilPreference is returned when a nil Preference reaches a unified
// entry point.
var errNilPreference = errors.New("prefmatch: nil Preference")

// reqSlack is the relative inflation applied to the re-qualification bound,
// absorbing float rounding between the bound arithmetic and the scores an
// actual walk would compute. Doubles carry ~1e-16 relative error; 1e-9
// over-covers by seven orders of magnitude and still never costs a
// requalification whose margin is real.
const reqSlack = 1e-9

// sessionFetch is how deep a linear session's walk goes for a top-k
// request: the extra ranks are the re-qualification headroom (see the file
// comment). Linear in k so the rescoring work stays proportional to the
// request, and saturating at math.MaxInt, where the walk returns every live
// object.
func sessionFetch(k int) int {
	if k > (math.MaxInt-8)/2 {
		return math.MaxInt
	}
	return 2*k + 8
}

// Session is one user's standing preference against a Server: open it once,
// revise the weights with Nudge as the user's taste drifts, and call TopK
// after each revision. The session pins nothing between calls — every TopK
// re-pins the latest epoch exactly like a fresh request — so holding a
// session open is free and never delays writers or merges.
//
// A Session is safe for concurrent use; calls serialise on the session's
// own mutex (one user's queries are ordered anyway), while different
// sessions proceed fully in parallel. Close the session when the user goes
// away; Server.Close closes every open session.
type Session struct {
	srv *Server
	qid int

	// closed is atomic, not guarded by mu, so Server.Close (which holds
	// sessMu) can mark sessions closed without ever taking a session mutex
	// — no lock-order edge between sessMu and mu exists in either
	// direction.
	closed atomic.Bool

	mu sync.Mutex

	isLinear bool
	fn       prefs.Function   // linear: current normalised function; Weights alias warena
	warena   vec.Point        // backing store for fn.Weights, reused across Nudges
	pref     prefs.Preference // monotone: adapter boxed once at open

	// The incremental state against which the next call re-qualifies. prev
	// holds n retained candidates with exact scores under prevWeights at
	// prevEpoch, best-first; every live object outside them scores ≤
	// prev.Threshold under prevWeights. prevProven is the prefix proven to
	// be the exact overall top-prevProven (a fresh walk proves all n rows;
	// a re-qualified serve proves the k it served). prevComplete means prev
	// holds every live object at prevEpoch (a walk ran dry), making any k
	// servable. All buffers are session-owned and reused.
	prevValid    bool
	prevComplete bool
	prevEpoch    uint64
	prevProven   int
	prevWeights  []float64
	prev         rescache.View

	// Scratch for re-scoring and reordering, reused across calls.
	newScores []float64
	order     []int
	tmpIDs    []index.ObjID
	tmpCoords []float64
	tmpScores []float64
	tmpSums   []float64
}

// OpenSession starts a preference session for p. A Query (or *Query) opens
// a linear session — weights are validated and normalised exactly like
// Server.TopK, Nudge revises them, and answers flow through the result
// cache and incremental re-evaluation. A PreferenceQuery (or any other
// monotone Preference) opens a monotone session, which answers every TopK
// with a ranked walk, labelled with the PreferenceQuery's ID (0 for a bare
// Preference). Sessions hold no snapshot and cost nothing while idle.
func (s *Server) OpenSession(p Preference) (*Session, error) {
	sess := &Session{srv: s}
	switch q := p.(type) {
	case Query:
		if err := sess.initLinear(s, q); err != nil {
			return nil, err
		}
	case *Query:
		if q == nil {
			return nil, errNilPreference
		}
		if err := sess.initLinear(s, *q); err != nil {
			return nil, err
		}
	case PreferenceQuery:
		if q.Preference == nil {
			return nil, fmt.Errorf("prefmatch: preference query %d is nil", q.ID)
		}
		sess.qid = q.ID
		sess.pref = prefAdapter{p: q.Preference}
	case *PreferenceQuery:
		if q == nil {
			return nil, errNilPreference
		}
		if q.Preference == nil {
			return nil, fmt.Errorf("prefmatch: preference query %d is nil", q.ID)
		}
		sess.qid = q.ID
		sess.pref = prefAdapter{p: q.Preference}
	case nil:
		return nil, errNilPreference
	default:
		sess.pref = prefAdapter{p: p}
	}
	// Register under sessMu with the lifecycle state re-checked inside the
	// lock: Close flips the state before sweeping the registry, so a racing
	// OpenSession either sees the flip here or its session is swept.
	s.sessMu.Lock()
	if s.state.Load() != stateServing {
		s.sessMu.Unlock()
		return nil, ErrClosed
	}
	s.sessions[sess] = struct{}{}
	s.sessMu.Unlock()
	return sess, nil
}

func (sess *Session) initLinear(s *Server, q Query) error {
	f, arena, err := appendQuery(sess.warena[:0], q, s.ix.Dim())
	if err != nil {
		return err
	}
	sess.isLinear = true
	sess.qid = q.ID
	sess.warena, sess.fn = arena, f
	return nil
}

// Nudge revises a linear session's weights in place: the same validation
// and normalisation as opening the session, no index work at all. The next
// TopK re-evaluates incrementally against the answer served under the old
// weights. Monotone sessions cannot be nudged (their preference is an
// opaque function); open a new session instead.
func (sess *Session) Nudge(weights []float64) error {
	if sess.closed.Load() {
		return ErrSessionClosed
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.isLinear {
		return errors.New("prefmatch: Nudge requires a linear session (opened with a Query)")
	}
	d := sess.srv.ix.Dim()
	if len(weights) != d {
		return fmt.Errorf("prefmatch: query %d has %d weights, want %d", sess.qid, len(weights), d)
	}
	// AppendFunction validates before writing, so a bad nudge leaves the
	// current weights untouched.
	f, arena, err := prefs.AppendFunction(sess.warena[:0], sess.qid, weights)
	if err != nil {
		return fmt.Errorf("prefmatch: query %d: %w", sess.qid, err)
	}
	sess.warena = arena
	sess.fn = f
	return nil
}

// TopK returns the session's current top-k, best first — bit-identical to
// Server.TopK (or TopKMonotone) with the session's current preference at
// the same epoch, however it was served: cache hit, re-qualification or
// walk.
func (sess *Session) TopK(k int) ([]Assignment, error) {
	return sess.topKAppend(cancel.Token{}, nil, k)
}

// TopKContext is TopK honouring ctx.
func (sess *Session) TopKContext(ctx context.Context, k int) ([]Assignment, error) {
	return sess.topKAppend(cancel.FromContext(ctx), nil, k)
}

// TopKAppend is TopK appending into dst, for callers that recycle result
// buffers. When the answer comes from a warm cache hit or an in-place
// re-qualification and dst has capacity, the call performs zero allocations
// (the CI alloc gate pins the hit path).
func (sess *Session) TopKAppend(dst []Assignment, k int) ([]Assignment, error) {
	return sess.topKAppend(cancel.Token{}, dst, k)
}

// TopKAppendContext is TopKAppend honouring ctx.
func (sess *Session) TopKAppendContext(ctx context.Context, dst []Assignment, k int) ([]Assignment, error) {
	return sess.topKAppend(cancel.FromContext(ctx), dst, k)
}

// Close marks the session closed and unregisters it from the server. Safe
// to call any number of times, and concurrently with in-flight calls —
// those finish normally; later calls fail with ErrSessionClosed.
func (sess *Session) Close() error {
	if sess.closed.Swap(true) {
		return nil
	}
	s := sess.srv
	s.sessMu.Lock()
	delete(s.sessions, sess)
	s.sessMu.Unlock()
	return nil
}

// topKAppend is the session serving path: one admitted request, served and
// traced by serve as op "session_topk", answered by the hit → re-qualify →
// walk ladder.
func (sess *Session) topKAppend(tok cancel.Token, dst []Assignment, k int) (_ []Assignment, err error) {
	s := sess.srv
	if sess.closed.Load() {
		return dst, ErrSessionClosed
	}
	if err := s.admit(tok); err != nil {
		return dst, err
	}
	defer s.exitRequest()
	defer s.finishReq(opSessionTopK, sess.qid, &err)
	vstart := time.Now()
	if k < 0 {
		s.om.fail(opSessionTopK)
		return dst, fmt.Errorf("prefmatch: negative k %d", k)
	}
	if k == 0 {
		return dst, nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Re-check after taking the session lock: a concurrent Close (session
	// or server) may have landed while this call waited.
	if sess.closed.Load() {
		return dst, ErrSessionClosed
	}
	out, err := serve(s, opSessionTopK, tok, time.Since(vstart), func(sc *serveScratch) ([]Assignment, error) {
		return sess.answer(tok, sc, dst, k, snapshotEpoch(sc.snap))
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// snapshotEpoch reads the epoch a pooled snapshot has pinned: rotating
// backends (dynamic, sharded-over-dynamic) implement index.Epocher; static
// backends are constant under the freeze contract, so epoch 0 is exact.
func snapshotEpoch(snap index.ObjectIndex) uint64 {
	if e, ok := snap.(index.Epocher); ok {
		return e.Epoch()
	}
	return 0
}

// answer serves one session top-k at the given epoch. Linear sessions try
// the result cache, then incremental re-qualification, then a walk;
// monotone sessions always walk.
func (sess *Session) answer(tok cancel.Token, sc *serveScratch, dst []Assignment, k int, epoch uint64) ([]Assignment, error) {
	s := sess.srv
	if !sess.isLinear {
		return sess.walk(tok, sc, dst, k, epoch)
	}
	w := []float64(sess.fn.Weights)

	// 1. Exact cache hit: the answer for (w, k, epoch) is already known —
	// computed by this session, another session, or a previous key
	// collision-free lifetime of these weights. Adopt it as the session's
	// incremental state too, so the next nudge re-qualifies against it.
	if s.rc != nil && s.rc.Get(w, k, epoch, &sess.prev) {
		sess.prevWeights = append(sess.prevWeights[:0], w...)
		sess.prevEpoch = epoch
		sess.prevProven = k
		sess.prevComplete = len(sess.prev.IDs) < k
		sess.prevValid = true
		return sess.appendPrev(dst, k), nil
	}

	// 2. Incremental re-qualification against the retained candidates.
	if sess.prevValid && sess.prevEpoch == epoch {
		n := len(sess.prev.IDs)
		if n > 0 && weightsEqual(sess.prevWeights, w) && (sess.prevComplete || k <= sess.prevProven) {
			// Identical query at the same epoch: the proven prefix (or the
			// complete set) serves directly, no re-scoring, no state change.
			if s.rc != nil {
				s.rc.Put(w, k, epoch, &sess.prev)
				s.rc.NoteRequalified()
			}
			return sess.appendPrev(dst, k), nil
		}
		if n > 0 && (sess.prevComplete || n >= k) {
			d := len(w)
			if cap(sess.newScores) < n {
				sess.newScores = make([]float64, n)
			}
			ns := sess.newScores[:n]
			// DotBatch accumulates coordinates in ascending order, exactly
			// like the searcher's scoring kernels, so re-scored values are
			// bit-identical to what a walk would produce.
			vec.DotBatch(w, 1, d, sess.prev.Coords[:n*d], ns)
			sc.c.ScoreEvals += int64(n)
			ord := sess.sortOrder(ns, n)
			delta := vec.DeltaBound(sess.prevWeights, w, sess.prev.RootLo, sess.prev.RootHi)
			bound := sess.prev.Threshold + delta
			bound += reqSlack * (math.Abs(bound) + 1)
			if sess.prevComplete || (n >= k && ns[ord[k-1]] > bound) {
				// Chomicki-style re-qualification: every object outside
				// prev scores ≤ Threshold + Δ under the new weights, so a
				// re-scored k-th strictly above that bound proves the top-k
				// never left the retained set. Strictness matters — a tie
				// at the bound could be broken against a candidate by
				// sum/ID — and the slack absorbs float rounding (inflating
				// it only costs a fallback, never exactness).
				sess.commitPrev(ns, ord, k, epoch, bound)
				if s.rc != nil {
					s.rc.Put(w, k, epoch, &sess.prev)
					s.rc.NoteRequalified()
				}
				return sess.appendPrev(dst, k), nil
			}
		}
	}

	// 3. Walk.
	return sess.walk(tok, sc, dst, k, epoch)
}

// commitPrev re-bases the retained candidates onto the current weights
// after a successful re-qualification: all n rows survive, reordered
// best-first under their re-scored values, and the threshold becomes the
// stale bound itself (it remains an upper bound on every outside object
// under the new weights — this is where repeated nudges gradually spend
// the over-fetch headroom). Only the k rows being served are proven to be
// the overall top-k. Buffers are swapped, not copied, so a warm session
// allocates nothing here.
func (sess *Session) commitPrev(ns []float64, ord []int, k int, epoch uint64, bound float64) {
	d := sess.srv.ix.Dim()
	n := len(sess.prev.IDs)
	sess.tmpIDs = sess.tmpIDs[:0]
	sess.tmpCoords = sess.tmpCoords[:0]
	sess.tmpScores = sess.tmpScores[:0]
	sess.tmpSums = sess.tmpSums[:0]
	for i := 0; i < n; i++ {
		j := ord[i]
		sess.tmpIDs = append(sess.tmpIDs, sess.prev.IDs[j])
		sess.tmpCoords = append(sess.tmpCoords, sess.prev.Coords[j*d:(j+1)*d]...)
		sess.tmpScores = append(sess.tmpScores, ns[j])
		sess.tmpSums = append(sess.tmpSums, sess.prev.Sums[j])
	}
	sess.prev.IDs, sess.tmpIDs = sess.tmpIDs, sess.prev.IDs
	sess.prev.Coords, sess.tmpCoords = sess.tmpCoords, sess.prev.Coords
	sess.prev.Scores, sess.tmpScores = sess.tmpScores, sess.prev.Scores
	sess.prev.Sums, sess.tmpSums = sess.tmpSums, sess.prev.Sums
	if !sess.prevComplete {
		sess.prev.Threshold = bound
	}
	sess.prevWeights = append(sess.prevWeights[:0], sess.fn.Weights...)
	sess.prevEpoch = epoch
	sess.prevProven = k
	if n < k {
		sess.prevProven = n
	}
	sess.prevValid = true
	// RootLo/RootHi stay: the epoch is unchanged, so the box is too.
}

// sortOrder fills sess.order with prev's row indices, best first under the
// re-scored values ns with the engine's canonical tie-break
// (prefs.BetterObj: score desc, coordinate sum desc, ID asc). Insertion
// sort: n is at most the session's fetch depth (2k+8), and sort.Slice would
// allocate its closure on every call.
func (sess *Session) sortOrder(ns []float64, n int) []int {
	ord := sess.order[:0]
	for i := 0; i < n; i++ {
		ord = append(ord, i)
	}
	sums, ids := sess.prev.Sums, sess.prev.IDs
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := ord[j], ord[j-1]
			if !prefs.BetterObj(ns[a], sums[a], int(ids[a]), ns[b], sums[b], int(ids[b])) {
				break
			}
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	sess.order = ord
	return ord
}

// appendPrev appends the first min(k, n) rows of the committed previous
// answer to dst, labelled with this session's query ID.
func (sess *Session) appendPrev(dst []Assignment, k int) []Assignment {
	n := len(sess.prev.IDs)
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		dst = append(dst, Assignment{QueryID: sess.qid, ObjectID: int(sess.prev.IDs[i]), Score: sess.prev.Scores[i]})
	}
	return dst
}

// walk answers by the server's one ranked search (searchSnapshot) over the
// pinned snapshot — the walk a cold Server.TopK runs, fetch deep instead of
// k deep (on a sharded server, through the composite's synthetic root).
// Linear sessions adopt the walked answer as incremental state and publish
// it to the result cache.
func (sess *Session) walk(tok cancel.Token, sc *serveScratch, dst []Assignment, k int, epoch uint64) ([]Assignment, error) {
	s := sess.srv
	fetch := k
	if sess.isLinear {
		sc.fns = append(sc.fns, &sess.fn) // pointer boxing: allocation-free, recognised by prefs.Linear
		fetch = sessionFetch(k)           // over-fetch: re-qualification headroom
	} else {
		sc.fns = append(sc.fns, sess.pref)
	}
	if err := searchSnapshot(sc, sc.fns, fetch, tok); err != nil {
		return dst, err
	}
	sess.tmpIDs = sess.tmpIDs[:0]
	sess.tmpCoords = sess.tmpCoords[:0]
	sess.tmpScores = sess.tmpScores[:0]
	sess.tmpSums = sess.tmpSums[:0]
	for _, r := range sc.rbuf {
		sess.tmpIDs = append(sess.tmpIDs, r.ID)
		sess.tmpCoords = append(sess.tmpCoords, r.Point...)
		sess.tmpScores = append(sess.tmpScores, r.Score)
		sess.tmpSums = append(sess.tmpSums, r.Point.Sum())
	}
	m := len(sess.tmpIDs)
	out := m
	if out > k {
		out = k
	}
	for i := 0; i < out; i++ {
		dst = append(dst, Assignment{QueryID: sess.qid, ObjectID: int(sess.tmpIDs[i]), Score: sess.tmpScores[i]})
	}
	if !sess.isLinear {
		return dst, nil
	}

	// Adopt the walked answer as the session's incremental state: swap the
	// collection buffers in, refresh the root box for this epoch, and
	// publish to the cache.
	sess.prev.IDs, sess.tmpIDs = sess.tmpIDs, sess.prev.IDs
	sess.prev.Coords, sess.tmpCoords = sess.tmpCoords, sess.prev.Coords
	sess.prev.Scores, sess.tmpScores = sess.tmpScores, sess.prev.Scores
	sess.prev.Sums, sess.tmpSums = sess.tmpSums, sess.prev.Sums
	if m == fetch {
		sess.prev.Threshold = sess.prev.Scores[m-1]
	} else {
		sess.prev.Threshold = math.Inf(1)
	}
	sess.prevComplete = m < fetch // the walk ran dry: prev holds every live object
	sess.prevWeights = append(sess.prevWeights[:0], sess.fn.Weights...)
	sess.prevEpoch = epoch
	sess.prevProven = m // a ranked walk's prefix is the exact top-m
	sess.prevValid = true
	var rerr error
	sess.prev.RootLo, sess.prev.RootHi, rerr = appendRootBounds(sc.snap, sess.prev.RootLo, sess.prev.RootHi)
	if rerr != nil {
		// The answer stands (it came from the walk), but without the box no
		// future delta can be bounded — drop the incremental state.
		sess.prevValid = false
	} else if s.rc != nil {
		s.rc.Put([]float64(sess.fn.Weights), k, epoch, &sess.prev)
	}
	if s.rc != nil {
		s.rc.NoteFallback()
	}
	return dst, nil
}

// appendRootBounds appends the bounding box of the snapshot's root node
// entries into lo/hi (reused at [:0]): the union of the root's rectangles
// for an internal root, of its points for a leaf root. Loose — it may cover
// tombstoned objects — but always a superset of every live point, which is
// the safe direction for the delta bound. An empty index yields a
// degenerate all-zero box (the bound is then 0, and unused).
func appendRootBounds(snap index.ObjectIndex, lo, hi []float64) ([]float64, []float64, error) {
	d := snap.Dim()
	lo, hi = lo[:0], hi[:0]
	root := snap.RootPage()
	if root == index.InvalidNode {
		for j := 0; j < d; j++ {
			lo = append(lo, 0)
			hi = append(hi, 0)
		}
		return lo, hi, nil
	}
	n, err := snap.ReadNode(root)
	if err != nil {
		return lo, hi, err
	}
	for j := 0; j < d; j++ {
		lo = append(lo, math.Inf(1))
		hi = append(hi, math.Inf(-1))
	}
	extend := func(p []float64) {
		for j := 0; j < d; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	if n.Leaf() {
		if fl, ok := n.(index.FlatLeaf); ok {
			_, pts := fl.FlatItems()
			for i := 0; i+d <= len(pts); i += d {
				extend(pts[i : i+d])
			}
		} else {
			for i := 0; i < n.Len(); i++ {
				extend(n.Object(i).Point)
			}
		}
	} else if fi, ok := n.(index.FlatInternal); ok {
		flo, fhi := fi.FlatRects()
		for i := 0; i+d <= len(flo); i += d {
			for j := 0; j < d; j++ {
				if flo[i+j] < lo[j] {
					lo[j] = flo[i+j]
				}
				if fhi[i+j] > hi[j] {
					hi[j] = fhi[i+j]
				}
			}
		}
	} else {
		for i := 0; i < n.Len(); i++ {
			r := n.Rect(i)
			for j := 0; j < d; j++ {
				if r.Lo[j] < lo[j] {
					lo[j] = r.Lo[j]
				}
				if r.Hi[j] > hi[j] {
					hi[j] = r.Hi[j]
				}
			}
		}
	}
	if n.Len() == 0 {
		// A root with no entries (fully emptied index): degenerate box.
		for j := 0; j < d; j++ {
			lo[j], hi[j] = 0, 0
		}
	}
	return lo, hi, nil
}

// weightsEqual compares two weight vectors bitwise — the same equality the
// result cache keys on, so "same weights" here and "cache hit" there never
// disagree.
func weightsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TopKPref is the unified one-shot entry point over the Preference
// interface, which both query families satisfy: a Query (or *Query) is
// served exactly like Server.TopK — weights validated and normalised — and
// a PreferenceQuery (or *PreferenceQuery) exactly like Server.TopKMonotone.
// Any other Preference runs as an anonymous monotone query with ID 0.
// TopK and TopKMonotone remain the concretely-typed forms of the same
// requests; equivalence tests pin that the three entry points agree
// bit-for-bit.
func (s *Server) TopKPref(p Preference, k int) ([]Assignment, error) {
	return s.topKPref(cancel.Token{}, p, k)
}

// TopKPrefContext is TopKPref honouring ctx.
func (s *Server) TopKPrefContext(ctx context.Context, p Preference, k int) ([]Assignment, error) {
	return s.topKPref(cancel.FromContext(ctx), p, k)
}

func (s *Server) topKPref(tok cancel.Token, p Preference, k int) ([]Assignment, error) {
	switch q := p.(type) {
	case Query:
		return s.topKReq(tok, q, k)
	case *Query:
		if q == nil {
			return nil, errNilPreference
		}
		return s.topKReq(tok, *q, k)
	case PreferenceQuery:
		return s.topKMonotone(tok, q, k)
	case *PreferenceQuery:
		if q == nil {
			return nil, errNilPreference
		}
		return s.topKMonotone(tok, *q, k)
	case nil:
		return nil, errNilPreference
	default:
		return s.topKMonotone(tok, PreferenceQuery{ID: 0, Preference: p}, k)
	}
}
