package core

import (
	"errors"
	"fmt"

	"prefmatch/internal/index"
	"prefmatch/internal/memrtree"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// chainMatcher is the Chain baseline of § V, adapting the spatial-matching
// algorithm of Wong et al. [2]: the functions are indexed by a main-memory
// R-tree built on their weights, the objects by the disk R-tree, and the
// nearest-neighbour module of [2] is replaced by top-1 search in the
// corresponding tree [3].
//
// A chain starts at an arbitrary unassigned function and alternates
// best-partner hops (function → its best object → that object's best
// function → ...). Because every hop is a strict improvement in the global
// pair order unless it returns to the previous element, the chain reaches a
// mutually-best — hence stable — pair in finitely many hops. The pair is
// emitted, the function leaves its tree (and the object its source, once
// its capacity is exhausted), and the walk resumes from the element below
// them on the stack.
//
// The object side is the restarting source: top-1 re-search against a tree
// the matcher deletes from, the paper's § V cost profile.
type chainMatcher struct {
	src   *restartSource
	ftree *memrtree.Tree
	fns   []prefs.Function
	c     *stats.Counters

	started  bool
	alive    []bool
	assigned map[index.ObjID]bool // objects with exhausted capacity
	resid    *residual
	live     int
	stack    []chainElem
	seek     int // next seed candidate (smallest untried function index)
}

type chainElem struct {
	isFn  bool
	fnIdx int
	objID index.ObjID
	point vec.Point
	sum   float64
	score float64 // score of the hop that discovered this element
}

func newChain(tree index.ObjectIndex, fs funcSet, opts *Options, c *stats.Counters) (*chainMatcher, error) {
	if fs.lin == nil {
		return nil, errors.New("core: Chain requires linear preferences (weight vectors to index)")
	}
	ftree, err := memrtree.New(tree.Dim(), 0, c) // 0: memrtree's default fan-out
	if err != nil {
		return nil, err
	}
	m := &chainMatcher{
		src:      newRestartSource(tree, fs.prefs, c),
		ftree:    ftree,
		fns:      fs.lin,
		c:        c,
		alive:    make([]bool, len(fs.lin)),
		assigned: map[index.ObjID]bool{},
		resid:    newResidual(opts.Capacities),
		live:     len(fs.lin),
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m, nil
}

func (m *chainMatcher) Counters() *stats.Counters { return m.c }

func (m *chainMatcher) Next() (Pair, bool, error) {
	if !m.started {
		for i := range m.fns {
			if err := m.ftree.Insert(memrtree.Item{Idx: i, ID: m.fns[i].ID, Weights: m.fns[i].Weights}); err != nil {
				return Pair{}, false, err
			}
		}
		m.started = true
	}
	for {
		if m.live == 0 || m.src.Len() == 0 {
			return Pair{}, false, nil
		}
		// An element can occur twice in one chain; after its first
		// occurrence is matched, later occurrences are stale. Pop them
		// before they are processed (they cannot trigger false matches
		// below the top, because matched members are gone from both sides).
		for len(m.stack) > 0 {
			top := m.stack[len(m.stack)-1]
			if (top.isFn && !m.alive[top.fnIdx]) || (!top.isFn && m.assigned[top.objID]) {
				m.stack = m.stack[:len(m.stack)-1]
				continue
			}
			break
		}
		if len(m.stack) == 0 {
			// Seed with the smallest-index unassigned function.
			for m.seek < len(m.fns) && !m.alive[m.seek] {
				m.seek++
			}
			if m.seek >= len(m.fns) {
				return Pair{}, false, nil
			}
			m.stack = append(m.stack, chainElem{isFn: true, fnIdx: m.seek})
		}
		top := m.stack[len(m.stack)-1]
		if top.isFn {
			cand, ok, err := m.src.Best(top.fnIdx)
			if err != nil {
				return Pair{}, false, err
			}
			if !ok {
				// Objects exhausted: no further pairs are possible.
				return Pair{}, false, nil
			}
			if n := len(m.stack); n >= 2 && !m.stack[n-2].isFn && m.stack[n-2].objID == cand.ObjID {
				// Mutual best: f's best object is the object that proposed f.
				return m.emit(top.fnIdx, m.stack[n-2])
			}
			m.c.Loops++
			m.stack = append(m.stack, chainElem{
				objID: cand.ObjID, point: cand.Point, sum: cand.Sum, score: cand.Score,
			})
			continue
		}
		it, score, ok := m.ftree.BestFor(top.point)
		if !ok {
			return Pair{}, false, fmt.Errorf("core: function tree empty with %d live functions", m.live)
		}
		if n := len(m.stack); n >= 2 && m.stack[n-2].isFn && m.stack[n-2].fnIdx == it.Idx {
			return m.emit(it.Idx, top)
		}
		m.c.Loops++
		m.stack = append(m.stack, chainElem{isFn: true, fnIdx: it.Idx, score: score})
	}
}

// emit reports the mutually-best pair (fnIdx, obj), removes the function
// from its tree (and the object from its source once its capacity is
// exhausted), and pops the chain back to the last still-available element.
func (m *chainMatcher) emit(fnIdx int, obj chainElem) (Pair, bool, error) {
	// The pair's score: the function applied to the object.
	m.c.ScoreEvals++
	score := m.fns[fnIdx].Score(obj.point)

	exhausted := m.resid.take(obj.objID)
	if exhausted {
		if err := m.src.Remove(obj.objID, obj.point); err != nil {
			return Pair{}, false, err
		}
		m.assigned[obj.objID] = true
	}
	if err := m.ftree.Delete(fnIdx, m.fns[fnIdx].Weights); err != nil {
		return Pair{}, false, err
	}
	m.alive[fnIdx] = false
	m.live--
	m.c.PairsEmitted++

	// Pop every trailing stack element that refers to a gone member: the
	// matched function, and the object if its capacity is exhausted. An
	// object with residual capacity stays on the stack, and the walk
	// resumes from it.
	for len(m.stack) > 0 {
		top := m.stack[len(m.stack)-1]
		if (top.isFn && top.fnIdx == fnIdx) || (!top.isFn && exhausted && top.objID == obj.objID) {
			m.stack = m.stack[:len(m.stack)-1]
			continue
		}
		break
	}
	return Pair{FuncID: m.fns[fnIdx].ID, ObjID: obj.objID, Score: score}, true, nil
}
