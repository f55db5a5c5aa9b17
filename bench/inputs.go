package main

import (
	"math/rand"

	"prefmatch"
)

// scale fixes every size and rate of the four workloads. fullScale is the
// benchmark; toyScale runs the same code paths in about a second each for
// the package tests.
type scale struct {
	dim, k int

	openObjects   int     // topk-open |O| (independent)
	openRate      float64 // topk-open requests per second
	openSetupReps int

	batchObjects   int // topk-batch |O| (anti-correlated)
	batchSize      int
	batchClients   int
	batchSetupReps int

	matchObjects   int // match-anti |O| (anti-correlated)
	matchFuncs     int // match-anti |F| per wave
	matchSetupReps int

	churnObjects   int     // session-churn |O| (head-heavy)
	churnRate      float64 // session-churn operations per second
	churnShared    int     // sessions on the shared default weights
	churnNudged    int     // sessions that nudge their weights before each read
	churnShards    int
	churnMerge     int // Options.MergeThreshold
	churnSetupReps int

	warmup        int // requests (batches, for topk-batch) before the measured phase
	oracleOpen    int // sampled topk-open answers checked by the oracle
	oracleBatches int // sampled topk-batch batches checked
	oracleCold    int // cold session-churn queries checked after Compact
	replay        int // queries a traced run replays layer by layer
}

var fullScale = scale{
	dim: 4, k: 10,

	openObjects: 1_000_000, openRate: 8000, openSetupReps: 3,

	batchObjects: 20_000, batchSize: 16, batchClients: 2, batchSetupReps: 21,

	matchObjects: 20_000, matchFuncs: 500, matchSetupReps: 21,

	churnObjects: 100_000, churnRate: 10_000, churnShared: 32, churnNudged: 4, churnShards: 4,
	churnMerge: 128, churnSetupReps: 11,

	warmup: 2000, oracleOpen: 256, oracleBatches: 64, oracleCold: 256, replay: 2048,
}

var toyScale = scale{
	dim: 4, k: 10,

	openObjects: 2000, openRate: 2000, openSetupReps: 2,

	batchObjects: 2000, batchSize: 16, batchClients: 2, batchSetupReps: 2,

	matchObjects: 2000, matchFuncs: 50, matchSetupReps: 2,

	churnObjects: 2000, churnRate: 2000, churnShared: 4, churnNudged: 2, churnShards: 4,
	churnMerge: 32, churnSetupReps: 2,

	warmup: 50, oracleOpen: 32, oracleBatches: 8, oracleCold: 32, replay: 64,
}

// Input streams: every generated input draws from its own stream of the run
// seed, so adding draws to one stream never shifts another.
const (
	streamObjects = iota + 1
	streamQueries
	streamWarmup
	streamChurnOps
	streamSessions
	streamBatchClient0 // + client index
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// queryWeights fills w with the raw weights of query i of a stream: uniform
// in (0,1], a pure function of (seed, stream, i), so the oracle check and a
// traced replay regenerate exactly the queries the measured phase sent.
func queryWeights(seed int64, stream int, i int64, w []float64) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<48 ^ uint64(i)
	for j := range w {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		w[j] = (float64(z>>11) + 1) / (1 << 53)
	}
}

func query(seed int64, stream int, i int64, d int) prefmatch.Query {
	w := make([]float64, d)
	queryWeights(seed, stream, i, w)
	return prefmatch.Query{ID: int(i), Weights: w}
}

// independentObjects draws n objects uniformly from the unit cube.
func independentObjects(n, d int, rng *rand.Rand) []prefmatch.Object {
	objs := make([]prefmatch.Object, n)
	for i := range objs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		objs[i] = prefmatch.Object{ID: i, Values: v}
	}
	return objs
}

// antiObjects draws n anti-correlated objects (the standard construction of
// Börzsönyi et al.): points near the plane Σx = d/2, spread within it, so an
// object good in one attribute is poor in the others and the skyline is
// large — the stress case for skyline-based matching.
func antiObjects(n, d int, rng *rand.Rand) []prefmatch.Object {
	objs := make([]prefmatch.Object, n)
	offs := make([]float64, d)
	for i := range objs {
		v := make([]float64, d)
	retry:
		for {
			c := 0.5 + rng.NormFloat64()*0.08
			mean := 0.0
			for j := range offs {
				offs[j] = rng.Float64() - 0.5
				mean += offs[j]
			}
			mean /= float64(d)
			for j := range v {
				v[j] = c + (offs[j]-mean)*0.9
				if v[j] < 0 || v[j] > 1 {
					continue retry
				}
			}
			break
		}
		objs[i] = prefmatch.Object{ID: i, Values: v}
	}
	return objs
}

// headCount is the number of dominant objects in a head-heavy set.
const headCount = 25

// headHeavyObjects is session-churn's object set: headCount dominant objects
// with evenly separated scores over a uniform [0, tailMax]^d tail. The rank
// gaps at the head are what lets a nudged session re-qualify its previous
// answer instead of walking the tree.
func headHeavyObjects(n, d int, rng *rand.Rand) []prefmatch.Object {
	objs := make([]prefmatch.Object, n)
	for i := range objs {
		v := make([]float64, d)
		for j := range v {
			if i < headCount {
				v[j] = 1 - 0.015*float64(i)
			} else {
				v[j] = rng.Float64() * tailMax
			}
		}
		objs[i] = prefmatch.Object{ID: i, Values: v}
	}
	return objs
}

const tailMax = 0.4

// nudgeFrac bounds a session-churn nudge: each weight is scaled by a factor
// in [1-nudgeFrac, 1+nudgeFrac].
const nudgeFrac = 0.005
