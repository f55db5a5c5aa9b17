package core

import (
	"fmt"
	"sort"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/ta"
	"prefmatch/internal/vec"
)

// sbMatcher is the paper's skyline-based algorithm (Algorithm 1 with the
// § IV modules):
//
//  1. compute the skyline of O with BBS, tracking pruned entries;
//  2. for every skyline object, find its best function by TA-based
//     reverse top-1 over the coefficient lists (BestPair, § IV-A);
//  3. report every pair (f, o) with o.fbest = f and f.obest = o — all are
//     stable by Property 1 (§ IV-C); at least one always exists;
//  4. remove the matched functions and objects, update the skyline through
//     the pruned-entry lists (§ IV-B), and repeat.
//
// Between loops the matcher caches each skyline object's TopM best
// functions (a match advances the list to its next alive entry, and only an
// exhausted list runs TA again) and each candidate function's best object
// (invalidated when that object is assigned, updated when new objects enter
// the skyline), so per-loop work is proportional to what actually changed.
//
// The loop runs over any monotone preferences: only the reverse top-m of
// step 2 needs linear weights, and over opaque preferences it is a scan.
type sbMatcher struct {
	fs    funcSet
	top   reverseTopM
	topM  int // list length: TopM, or 1 where a test pins the paper's reverse top-1
	maint *skyline.Maintainer
	c     *stats.Counters

	multiPair bool
	started   bool
	done      bool
	resid     *residual

	// ocache maps a skyline object ID to its ranked list of best
	// functions; entries exist for exactly the current skyline members.
	// The lists live in ranked, topM hits per slot, best first; a removed
	// object's slot goes to free for the next new member. Within a wave
	// functions only leave, so the alive hits of an exact top-m list are a
	// prefix of the object's order over the alive functions, ties included:
	// the first alive hit is the object's best function.
	ocache map[index.ObjID]obCache
	ranked []ta.Hit
	free   []int32
	// fcache holds, per function position, the function's best object over
	// the current skyline; entries may be stale-marked (valid=false) but
	// never wrong. Dense indexing keeps the refresh pass in function order
	// (a map would iterate randomly) and allocation-free.
	fcache []fnCache

	queue pairQueue // emitted but not yet returned by Next

	loopScratch // per-loop reusable state
}

// TopM is the length of the ranked function list SB keeps per skyline
// object. It was chosen by measurement, on SB waves over 20k
// anti-correlated 4-d objects and 500 functions: of m = 1, 2, 4, 8 and 16,
// m = 4 and 8 made the fastest waves, and a wave ran 28,761 TA searches at
// m = 1 (the paper's reverse top-1), 12,872 at m = 4 and 8,918 at m = 8.
const TopM = 8

// reverseTopM is SB's BestPair module (§ IV-A) over the alive functions:
// *ta.Lists for linear functions, scanTopM for opaque monotone ones.
// ReverseTopM appends the best m alive functions for o to dst, best first;
// Remove withdraws an assigned function.
type reverseTopM interface {
	ReverseTopM(o vec.Point, m int, dst []ta.Hit) []ta.Hit
	Remove(i int) error
	Alive(i int) bool
	AliveCount() int
}

// obCache locates a skyline object's list in ranked: slot, the position of
// its best alive hit, and its length.
type obCache struct {
	slot, cur, n int32
}

type fnCache struct {
	obj   *skyline.Object
	score float64
	valid bool
}

func newSB(tree index.ObjectIndex, fs funcSet, opts *Options, c *stats.Counters) (*sbMatcher, error) {
	var top reverseTopM
	if fs.lin == nil {
		top = newScanTopM(fs, c)
	} else {
		lists, err := ta.NewLists(fs.lin, c)
		if err != nil {
			return nil, err
		}
		lists.TightThreshold = !opts.DisableTightThreshold
		top = lists
	}
	return &sbMatcher{
		fs:          fs,
		top:         top,
		topM:        TopM,
		maint:       skyline.New(tree, opts.SkylineMode, c),
		c:           c,
		multiPair:   !opts.DisableMultiPair,
		resid:       newResidual(opts.Capacities),
		ocache:      map[index.ObjID]obCache{},
		fcache:      make([]fnCache, len(fs.ids)),
		loopScratch: newLoopScratch(len(fs.ids)),
	}, nil
}

func (m *sbMatcher) Counters() *stats.Counters { return m.c }

func (m *sbMatcher) Next() (Pair, bool, error) {
	if p, ok := m.queue.pop(); ok {
		return p, true, nil
	}
	if m.done {
		return Pair{}, false, nil
	}
	if !m.started {
		if err := m.start(); err != nil {
			return Pair{}, false, err
		}
	}
	for m.queue.len() == 0 {
		if m.top.AliveCount() == 0 || m.maint.Size() == 0 {
			m.done = true
			return Pair{}, false, nil
		}
		if err := m.loop(); err != nil {
			return Pair{}, false, err
		}
	}
	p, _ := m.queue.pop()
	return p, true, nil
}

// start computes the initial skyline and the ranked functions of every
// member.
func (m *sbMatcher) start() error {
	if err := m.maint.Compute(); err != nil {
		return err
	}
	for _, o := range m.maint.Skyline() {
		if err := m.rank(o, obCache{slot: m.newSlot()}); err != nil {
			return err
		}
	}
	m.started = true
	return nil
}

// best returns the best alive function in oc's list.
func (m *sbMatcher) best(oc obCache) ta.Hit {
	return m.ranked[int(oc.slot)*m.topM+int(oc.cur)]
}

// newSlot hands out a list slot, reusing a removed object's.
func (m *sbMatcher) newSlot() int32 {
	if n := len(m.free); n > 0 {
		slot := m.free[n-1]
		m.free = m.free[:n-1]
		return slot
	}
	m.ranked = append(m.ranked, make([]ta.Hit, m.topM)...)
	return int32(len(m.ranked)/m.topM - 1)
}

// rank fills oc's slot with o's best topM alive functions by a reverse
// top-m search and caches the list for o.
func (m *sbMatcher) rank(o *skyline.Object, oc obCache) error {
	start := int(oc.slot) * m.topM
	hits := m.top.ReverseTopM(o.Point, m.topM, m.ranked[start:start:start+m.topM])
	if len(hits) == 0 {
		return fmt.Errorf("core: no functions for skyline object %d", o.ID)
	}
	oc.cur, oc.n = 0, int32(len(hits))
	m.ocache[o.ID] = oc
	return nil
}

// loop runs one iteration of Algorithm 1, emitting at least one stable pair
// into the queue.
func (m *sbMatcher) loop() error {
	m.c.Loops++
	m.gen++
	sky := m.maint.Skyline()

	// Fbest: the distinct best functions over the skyline, in deterministic
	// (skyline discovery) order.
	fbestOrder := m.fbest[:0]
	for _, o := range sky {
		oc, ok := m.ocache[o.ID]
		if !ok {
			return fmt.Errorf("core: missing ocache for skyline object %d", o.ID)
		}
		if fIdx := int(m.best(oc).Idx); m.fbestGen[fIdx] != m.gen {
			m.fbestGen[fIdx] = m.gen
			fbestOrder = append(fbestOrder, fIdx)
		}
	}
	m.fbest = fbestOrder

	// Ensure every f in Fbest has a valid best object over the skyline.
	for _, fIdx := range fbestOrder {
		if !m.fcache[fIdx].valid {
			m.fcache[fIdx] = m.challenge(fIdx, fnCache{}, sky)
		}
	}

	// Collect the mutually-best pairs (§ IV-C). Each is stable by
	// Property 1. Without multi-pair (ablation), keep only the globally
	// best one.
	pairs := m.pairs[:0]
	for _, fIdx := range fbestOrder {
		fc := m.fcache[fIdx]
		if int(m.best(m.ocache[fc.obj.ID]).Idx) == fIdx {
			pairs = append(pairs, matchedPair{fIdx: fIdx, obj: fc.obj, score: fc.score})
		}
	}
	m.pairs = pairs
	if len(pairs) == 0 {
		return fmt.Errorf("core: no stable pair found in loop %d (invariant violation)", m.c.Loops)
	}
	// Order by the global pair order; the first element is the pair the
	// plain greedy process would emit now.
	sort.Slice(pairs, func(i, j int) bool {
		a := prefs.PairKey{Score: pairs[i].score, ObjSum: pairs[i].obj.Sum, FuncID: m.fs.ids[pairs[i].fIdx], ObjID: int(pairs[i].obj.ID)}
		b := prefs.PairKey{Score: pairs[j].score, ObjSum: pairs[j].obj.Sum, FuncID: m.fs.ids[pairs[j].fIdx], ObjID: int(pairs[j].obj.ID)}
		return a.Better(b)
	})
	if !m.multiPair {
		pairs = pairs[:1]
	}

	// Emit; remove functions always, objects only when their capacity is
	// exhausted (the default capacity is 1, the paper's 1-1 model).
	removedObjs := m.removed[:0]
	for _, p := range pairs {
		m.queue.push(Pair{FuncID: m.fs.ids[p.fIdx], ObjID: p.obj.ID, Score: p.score})
		m.c.PairsEmitted++
		m.matchedGen[p.fIdx] = m.gen
		if err := m.top.Remove(p.fIdx); err != nil {
			return err
		}
		m.fcache[p.fIdx] = fnCache{}
		if m.resid.take(p.obj.ID) {
			removedObjs = append(removedObjs, p.obj.ID)
			m.free = append(m.free, m.ocache[p.obj.ID].slot)
			delete(m.ocache, p.obj.ID)
		}
		// A surviving object keeps its skyline slot; its list's best hit is
		// the just-matched function and advances below.
	}
	m.removed = removedObjs

	// Skyline maintenance (§ IV-B): promote what the removed objects were
	// exclusively dominating.
	added, err := m.maint.Remove(removedObjs)
	if err != nil {
		return err
	}

	if m.top.AliveCount() == 0 {
		return nil
	}

	// Refresh ocache: an object whose best function was just assigned moves
	// to its next alive hit, and runs a new reverse top-m only when its
	// list is exhausted; new skyline members need their first one.
	for _, o := range m.maint.Skyline() {
		oc, ok := m.ocache[o.ID]
		if !ok {
			oc = obCache{slot: m.newSlot()}
		} else if m.matchedGen[m.best(oc).Idx] != m.gen {
			continue
		} else {
			oc.cur++
			for oc.cur < oc.n && !m.top.Alive(int(m.best(oc).Idx)) {
				oc.cur++
			}
			if oc.cur < oc.n {
				m.ocache[o.ID] = oc
				continue
			}
		}
		if err := m.rank(o, oc); err != nil {
			return err
		}
	}

	// Refresh fcache: invalidate entries whose best object was assigned,
	// then challenge the surviving entries with the newly promoted objects.
	// Dense iteration runs in function order — the map it replaced iterated
	// randomly.
	m.removedQ.reset(removedObjs)
	for fIdx := range m.fcache {
		fc := m.fcache[fIdx]
		if !fc.valid {
			continue
		}
		if m.removedQ.has(fc.obj.ID) {
			fc.valid = false
			m.fcache[fIdx] = fc
			continue
		}
		if len(added) > 0 {
			m.fcache[fIdx] = m.challenge(fIdx, fc, added)
		}
	}
	return nil
}

// challenge returns function i's best object among fc's (none when fc is
// invalid) and objs. A linear function is scored directly, without the
// interface dispatch per object: these scans are most of SB's scoring
// outside TA.
func (m *sbMatcher) challenge(i int, fc fnCache, objs []*skyline.Object) fnCache {
	m.c.ScoreEvals += int64(len(objs))
	if m.fs.lin != nil {
		f := m.fs.lin[i]
		for _, o := range objs {
			if s := f.Score(o.Point); !fc.valid || prefs.BetterObj(s, o.Sum, int(o.ID), fc.score, fc.obj.Sum, int(fc.obj.ID)) {
				fc = fnCache{obj: o, score: s, valid: true}
			}
		}
		return fc
	}
	p := m.fs.prefs[i]
	for _, o := range objs {
		if s := p.Score(o.Point); !fc.valid || prefs.BetterObj(s, o.Sum, int(o.ID), fc.score, fc.obj.Sum, int(fc.obj.ID)) {
			fc = fnCache{obj: o, score: s, valid: true}
		}
	}
	return fc
}
