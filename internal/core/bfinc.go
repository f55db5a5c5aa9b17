package core

import (
	"prefmatch/internal/index"
	"prefmatch/internal/stats"
)

// newBFIncremental is the improved Brute Force variant built on *incremental*
// ranked search, the adaptation style the paper's introduction sketches for
// [2] ("replacing the progressive NN search by incremental top-k search,
// e.g., using the method of [3]").
//
// It is the same greedy wave loop as classic Brute Force (candidateMatcher)
// with the incremental ObjectSource plugged in: instead of deleting assigned
// objects from the R-tree and re-running top-1 searches from scratch
// (§ III-A), every function keeps a resumable stream over the unmodified
// tree; when a function's current candidate is assigned to someone else, the
// stream simply advances to the next unassigned object. No tree deletions,
// no restarted searches — each object of each function's ranking is produced
// at most once.
//
// The variant exists as an ablation (AlgBruteForceIncremental): it
// quantifies how much of classic Brute Force's cost is re-search, and it
// still loses to SB, which bounds its working set by the skyline.
func newBFIncremental(tree index.ObjectIndex, fs funcSet, opts *Options, c *stats.Counters) *candidateMatcher {
	return newCandidateMatcher(newIncSource(tree, fs.prefs, c), fs.ids, opts, c)
}
