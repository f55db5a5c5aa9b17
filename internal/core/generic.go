package core

import (
	"fmt"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/ta"
	"prefmatch/internal/vec"
)

// The paper's model admits "any monotone function" (§ II), even though its
// presentation and experiments use linear ones. A GenericPreference only has
// to be monotone (weakly dominating objects never score lower), and the
// matchers run unchanged over it: the top-1 object of any monotone
// preference is on the skyline, so SB's loop holds, and the score of an
// MBR's top corner bounds the ranked searches of Brute Force and its
// incremental ablation. Only SB's reverse top-1 needs coefficient lists for
// TA; over opaque preferences it is scanTopM below. Chain, which indexes the
// weight vectors in an R-tree, is unavailable.

// GenericPreference is a monotone scoring function with an identity.
type GenericPreference struct {
	ID   int
	Pref prefs.Preference
}

// MatchGeneric computes the stable matching between the objects in tree and
// a set of monotone preferences.
func MatchGeneric(tree index.ObjectIndex, gps []GenericPreference, opts *Options) ([]Pair, error) {
	m, err := NewGenericMatcher(tree, gps, opts)
	if err != nil {
		return nil, err
	}
	return MatchAll(m)
}

// NewGenericMatcher builds a progressive matcher over monotone preferences,
// exactly as NewMatcher does over linear functions. Algorithms: AlgSB
// (default), AlgBruteForce and AlgBruteForceIncremental; AlgChain returns
// an error because it needs linear weights to index.
func NewGenericMatcher(tree index.ObjectIndex, gps []GenericPreference, opts *Options) (Matcher, error) {
	fs := funcSet{ids: make([]int, len(gps)), prefs: make([]prefs.Preference, len(gps))}
	for i, gp := range gps {
		fs.ids[i], fs.prefs[i] = gp.ID, gp.Pref
	}
	return newMatcher(tree, fs, opts)
}

// scanTopM is SB's reverse top-m over opaque monotone preferences, which
// have no coefficient lists for TA to walk: it scores the object under
// every alive preference.
type scanTopM struct {
	fs    funcSet
	alive []bool
	live  int
	c     *stats.Counters
}

func newScanTopM(fs funcSet, c *stats.Counters) *scanTopM {
	s := &scanTopM{fs: fs, alive: make([]bool, len(fs.ids)), live: len(fs.ids), c: c}
	for i := range s.alive {
		s.alive[i] = true
	}
	return s
}

func (s *scanTopM) AliveCount() int { return s.live }

func (s *scanTopM) Alive(i int) bool { return s.alive[i] }

func (s *scanTopM) Remove(i int) error {
	if !s.alive[i] {
		return fmt.Errorf("core: function %d already removed", i)
	}
	s.alive[i] = false
	s.live--
	return nil
}

// ReverseTopM appends the m alive preferences scoring o highest to dst,
// best first under the object-side order (score desc, then smaller ID), as
// ta.Lists does.
func (s *scanTopM) ReverseTopM(o vec.Point, m int, dst []ta.Hit) []ta.Hit {
	base := len(dst)
	for i, p := range s.fs.prefs {
		if !s.alive[i] {
			continue
		}
		s.c.ScoreEvals++
		dst = ta.Offer(dst, base, m, ta.Hit{Idx: int32(i), Score: p.Score(o)}, s.fs.ids)
	}
	return dst
}
