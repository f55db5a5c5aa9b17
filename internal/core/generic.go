package core

import (
	"fmt"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// The paper's model admits "any monotone function" (§ II), even though its
// presentation and experiments use linear ones. A GenericPreference only has
// to be monotone (weakly dominating objects never score lower), and the
// matchers run unchanged over it: the top-1 object of any monotone
// preference is on the skyline, so SB's loop holds, and the score of an
// MBR's top corner bounds the ranked searches of Brute Force and its
// incremental ablation. Only SB's reverse top-1 needs coefficient lists for
// TA; over opaque preferences it is scanTop1 below. Chain, which indexes the
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

// scanTop1 is SB's reverse top-1 over opaque monotone preferences, which
// have no coefficient lists for TA to walk: it scores the object under
// every alive preference.
type scanTop1 struct {
	fs    funcSet
	alive []bool
	live  int
	c     *stats.Counters
}

func newScanTop1(fs funcSet, c *stats.Counters) *scanTop1 {
	s := &scanTop1{fs: fs, alive: make([]bool, len(fs.ids)), live: len(fs.ids), c: c}
	for i := range s.alive {
		s.alive[i] = true
	}
	return s
}

func (s *scanTop1) AliveCount() int { return s.live }

func (s *scanTop1) Remove(i int) error {
	if !s.alive[i] {
		return fmt.Errorf("core: function %d already removed", i)
	}
	s.alive[i] = false
	s.live--
	return nil
}

// ReverseTop1 returns the alive preference scoring o highest, under the
// object-side order (score desc, then smaller ID), as ta.Lists does.
func (s *scanTop1) ReverseTop1(o vec.Point) (int, float64, bool) {
	best, bestScore := -1, 0.0
	for i, p := range s.fs.prefs {
		if !s.alive[i] {
			continue
		}
		s.c.ScoreEvals++
		score := p.Score(o)
		if best < 0 || prefs.BetterFunc(score, s.fs.ids[i], bestScore, s.fs.ids[best]) {
			best, bestScore = i, score
		}
	}
	return best, bestScore, best >= 0
}
