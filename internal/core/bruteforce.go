package core

import (
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
)

// candidateMatcher is the greedy wave loop shared by the Brute Force family
// (§ III-A and its incremental ablation): every function holds a cached
// candidate — its best remaining object, obtained from the ObjectSource —
// and the pair with the globally highest priority is stable (o is f's top-1,
// and no other function can score o higher, or it would head a cached pair
// with a higher priority). After emitting (f, o), o is withdrawn from the
// source once its capacity is exhausted and the candidates of every function
// whose cached best was o are refreshed.
//
// The loop itself never touches the object index: classic Brute Force plugs
// in the restarting source (top-1 re-search after every tree deletion, the
// paper's § III-A cost profile) and the incremental ablation plugs in
// resumable streams — both emit the identical assignment stream because the
// loop's decisions depend only on the candidate values. Capacities are
// resolved here, in the loop, so sources stay capacity-oblivious.
type candidateMatcher struct {
	src ObjectSource
	ids []int // function i's external ID
	c   *stats.Counters

	started  bool
	alive    []bool
	cache    []Candidate
	has      []bool
	live     int
	resid    *residual
	affected []int // reusable scratch for the post-removal refresh set
}

func newBruteForce(tree index.ObjectIndex, fs funcSet, opts *Options, c *stats.Counters) *candidateMatcher {
	return newCandidateMatcher(newRestartSource(tree, fs.prefs, c), fs.ids, opts, c)
}

func newCandidateMatcher(src ObjectSource, ids []int, opts *Options, c *stats.Counters) *candidateMatcher {
	m := &candidateMatcher{
		src:   src,
		ids:   ids,
		c:     c,
		alive: make([]bool, len(ids)),
		cache: make([]Candidate, len(ids)),
		has:   make([]bool, len(ids)),
		live:  len(ids),
		resid: newResidual(opts.Capacities),
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m
}

func (m *candidateMatcher) Counters() *stats.Counters { return m.c }

// refresh re-reads function i's candidate from the source.
func (m *candidateMatcher) refresh(i int) error {
	cand, ok, err := m.src.Best(i)
	if err != nil {
		return err
	}
	m.cache[i], m.has[i] = cand, ok
	return nil
}

// refreshAll refreshes the given functions. The restarting source is primed
// first, so its Best calls answer from one shared traversal; the
// incremental source answers one Best at a time.
func (m *candidateMatcher) refreshAll(idxs []int) error {
	if p, ok := m.src.(*restartSource); ok && len(idxs) > 1 {
		if err := p.Prime(idxs); err != nil {
			return err
		}
	}
	for _, i := range idxs {
		if err := m.refresh(i); err != nil {
			return err
		}
	}
	return nil
}

func (m *candidateMatcher) Next() (Pair, bool, error) {
	if !m.started {
		idxs := make([]int, len(m.ids))
		for i := range idxs {
			idxs[i] = i
		}
		if err := m.refreshAll(idxs); err != nil {
			return Pair{}, false, err
		}
		m.started = true
	}
	if m.live == 0 || m.src.Len() == 0 {
		return Pair{}, false, nil
	}

	// The highest-priority cached pair is stable (§ III-A).
	best := -1
	for i := range m.ids {
		if !m.alive[i] || !m.has[i] {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		a := prefs.PairKey{Score: m.cache[i].Score, ObjSum: m.cache[i].Sum, FuncID: m.ids[i], ObjID: int(m.cache[i].ObjID)}
		b := prefs.PairKey{Score: m.cache[best].Score, ObjSum: m.cache[best].Sum, FuncID: m.ids[best], ObjID: int(m.cache[best].ObjID)}
		if a.Better(b) {
			best = i
		}
	}
	if best == -1 {
		return Pair{}, false, nil // objects exhausted
	}
	won := m.cache[best]
	m.alive[best] = false
	m.live--
	m.c.PairsEmitted++
	m.c.Loops++

	// When the object's capacity is exhausted, withdraw it from the source
	// and refresh every function whose cached best was o. While it has
	// residual capacity the caches remain valid.
	if m.resid.take(won.ObjID) {
		if err := m.src.Remove(won.ObjID, won.Point); err != nil {
			return Pair{}, false, err
		}
		affected := m.affected[:0]
		for i := range m.ids {
			if m.alive[i] && m.has[i] && m.cache[i].ObjID == won.ObjID {
				affected = append(affected, i)
			}
		}
		m.affected = affected
		if err := m.refreshAll(affected); err != nil {
			return Pair{}, false, err
		}
	}
	return Pair{FuncID: m.ids[best], ObjID: won.ObjID, Score: won.Score}, true, nil
}
