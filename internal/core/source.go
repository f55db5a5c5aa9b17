package core

import (
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// This file factors the object-index side of the candidate-driven matchers
// (Brute Force, Brute Force Incremental, Chain) behind ObjectSource: the
// matchers' decision loops only ever ask "what is function f's best
// remaining object?" and "object o's capacity is exhausted, withdraw it".
// Everything else — restarted top-1 searches on a mutated tree, or
// resumable incremental streams over a frozen one — is a source strategy.
// Capacities stay out of the sources on purpose: the residual bookkeeping
// lives in the loop.

// Candidate is one candidate pair: a function's best remaining object
// together with everything the global pair order needs (score, coordinate
// sum, ID).
type Candidate struct {
	ObjID index.ObjID
	Point vec.Point
	Sum   float64
	Score float64
}

// ObjectSource is the remaining-object view consumed by the candidate-driven
// matchers. Best must return function fnIdx's best remaining object under
// the canonical ranked order (topk.Better: score desc, then coordinate sum
// desc, then object ID asc), ok == false when no object remains; Remove
// withdraws an object whose capacity the loop has exhausted; Len counts
// the remaining objects. Implementations are free to answer Best by
// restarted search or resumable streams — the matchers only depend on the
// returned values, which is what makes every strategy emit the identical
// assignment stream.
type ObjectSource interface {
	Len() int
	Best(fnIdx int) (Candidate, bool, error)
	Remove(id index.ObjID, p vec.Point) error
}

// restartSource is the § III-A access pattern: every Best issues a fresh
// branch-and-bound top-1 search (topk.Top1, a batch searcher of one), and
// Remove physically deletes the object from the tree — exactly the work
// profile the paper charges to classic Brute Force (and to Chain's object
// side). Prime batches a refresh wave's top-1 searches into shared
// traversals (topk.BatchSearcher); the cache it fills is invalidated
// wholesale by the next deletion, so a stale answer can never survive a tree
// mutation.
type restartSource struct {
	tree index.ObjectIndex
	fns  []prefs.Preference
	c    *stats.Counters

	epoch      int   // bumped by Remove; invalidates every primed answer
	primeEpoch []int // epoch at which fn i was primed (valid iff == epoch)
	primeHas   []bool
	primeCand  []Candidate

	// Prime scratch, reused across refresh waves.
	primeFns []prefs.Preference
	primeKs  []int
	rbuf     []topk.Result
}

func newRestartSource(tree index.ObjectIndex, fns []prefs.Preference, c *stats.Counters) *restartSource {
	return &restartSource{
		tree:       tree,
		fns:        fns,
		c:          c,
		epoch:      1,
		primeEpoch: make([]int, len(fns)),
		primeHas:   make([]bool, len(fns)),
		primeCand:  make([]Candidate, len(fns)),
	}
}

func (s *restartSource) Len() int { return s.tree.Len() }

func (s *restartSource) Best(fnIdx int) (Candidate, bool, error) {
	if s.primeEpoch[fnIdx] == s.epoch {
		return s.primeCand[fnIdx], s.primeHas[fnIdx], nil
	}
	res, ok, err := topk.Top1(s.tree, s.fns[fnIdx], s.c)
	if err != nil || !ok {
		return Candidate{}, false, err
	}
	return Candidate{ObjID: res.ID, Point: res.Point, Sum: res.Point.Sum(), Score: res.Score}, true, nil
}

// Prime answers a whole refresh wave's top-1 searches with one batch
// search, which walks the tree once per 64 functions. Each primed answer is
// bit-identical to the restarted search Best would have issued (the batched
// searcher's guarantee), so the matcher sees the exact same candidate
// stream, just with the tree's upper levels read once per 64 functions
// instead of once per function. Each function is scored only against the
// nodes its own bound still admits, so a wide wave (Brute Force's first,
// of every function) does not score every node it reads for every function.
func (s *restartSource) Prime(fnIdxs []int) error {
	if len(fnIdxs) < 2 {
		return nil
	}
	s.primeFns = s.primeFns[:0]
	s.primeKs = s.primeKs[:0]
	for _, i := range fnIdxs {
		s.primeFns = append(s.primeFns, s.fns[i])
		s.primeKs = append(s.primeKs, 1)
	}
	b := topk.AcquireBatchSearcher(s.tree, s.primeFns, s.primeKs, s.c)
	defer b.Release()
	if err := b.Run(); err != nil {
		return err
	}
	for pos, i := range fnIdxs {
		s.rbuf = b.AppendResults(pos, s.rbuf[:0])
		s.primeEpoch[i] = s.epoch
		if len(s.rbuf) == 0 {
			s.primeHas[i] = false
			s.primeCand[i] = Candidate{}
			continue
		}
		r := s.rbuf[0]
		s.primeHas[i] = true
		s.primeCand[i] = Candidate{ObjID: r.ID, Point: r.Point, Sum: r.Point.Sum(), Score: r.Score}
	}
	return nil
}

func (s *restartSource) Remove(id index.ObjID, p vec.Point) error {
	s.epoch++ // the tree is about to change; every primed answer is stale
	return s.tree.Delete(id, p)
}

// incSource is the incremental strategy: every function keeps a resumable
// ranked stream over the unmodified tree, Remove is logical (a removed set
// the streams skip), and each object of each function's ranking is produced
// at most once. No tree deletions, no restarted searches.
type incSource struct {
	tree     index.ObjectIndex
	fns      []prefs.Preference
	c        *stats.Counters
	searches []*topk.Searcher
	cand     []Candidate // current head per function (valid while has[i])
	has      []bool
	removed  map[index.ObjID]bool
	gone     int // objects logically removed
}

func newIncSource(tree index.ObjectIndex, fns []prefs.Preference, c *stats.Counters) *incSource {
	return &incSource{
		tree:     tree,
		fns:      fns,
		c:        c,
		searches: make([]*topk.Searcher, len(fns)),
		cand:     make([]Candidate, len(fns)),
		has:      make([]bool, len(fns)),
		removed:  map[index.ObjID]bool{},
	}
}

func (s *incSource) Len() int { return s.tree.Len() - s.gone }

func (s *incSource) Best(fnIdx int) (Candidate, bool, error) {
	if s.has[fnIdx] && !s.removed[s.cand[fnIdx].ObjID] {
		// The cached head is still live; the stream need not advance.
		return s.cand[fnIdx], true, nil
	}
	if s.searches[fnIdx] == nil {
		srch := topk.NewSearcher()
		srch.Reset(s.tree, s.fns[fnIdx], s.c)
		s.searches[fnIdx] = srch
	}
	for {
		res, ok, err := s.searches[fnIdx].Next()
		if err != nil {
			return Candidate{}, false, err
		}
		if !ok {
			s.has[fnIdx] = false
			return Candidate{}, false, nil
		}
		if s.removed[res.ID] {
			continue
		}
		s.cand[fnIdx] = Candidate{ObjID: res.ID, Point: res.Point, Sum: res.Point.Sum(), Score: res.Score}
		s.has[fnIdx] = true
		return s.cand[fnIdx], true, nil
	}
}

// incSource deliberately has no Prime. Its defining contract — exactly one
// resumable search per function, every ranked object produced at most once
// — is what keeps its I/O strictly below classic Brute Force, and a batched
// re-prime would re-descend the tree for every refresh wave, re-reading
// upper levels the live streams have already paid for. Shared-traversal
// priming pays off only where the per-function work is stateless anyway
// (restartSource).

func (s *incSource) Remove(id index.ObjID, p vec.Point) error {
	s.removed[id] = true
	s.gone++
	return nil
}
