package main

import (
	"fmt"
	"sort"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
)

// Auction parameters every workload shares; they are mcs-platform's
// defaults. epsilon is a power of two, so a campaign's cumulative spend
// rounds × epsilon is exact in float64 and can be checked with ==.
const (
	cMin    = 5.0
	cMax    = 30.0
	epsilon = 0.5
	delta   = 0.3
	skillLo = 0.75
	skillHi = 0.95
)

// spec is one workload: the shape of the campaign the fleet drives.
type spec struct {
	name string
	// why is the one-line reason the workload exists, as listed in
	// BENCHMARK.json.
	why       string
	workers   int
	tasks     int
	bundleMin int
	bundleMax int
	// gridStep spaces the candidate clearing prices over [cMin, cMax].
	gridStep float64
	shards   int
	// durable serves the campaign from a FileStore (fsync on, snapshot
	// every 64 records) with a journaled accountant and checkpoints, as
	// mcs-platform -state-dir does.
	durable bool
	warmup  int
}

// workloads are the benchmark's traffic mixes. Each stresses a
// different layer, and each has a partner that bypasses it: fleet is
// the control for the auction core, auction for the shard layer, and
// the in-memory workloads for the durable store.
var workloads = []spec{
	{
		name:      "fleet",
		why:       "2000 workers with small bundles: per-bid wire work dominates, the auction core barely shows",
		workers:   2000,
		tasks:     12,
		bundleMin: 2, bundleMax: 6,
		gridStep: 1,
		shards:   1,
		warmup:   2,
	},
	{
		name:      "auction",
		why:       "1000 workers bidding 50-150 of 200 tasks over a 251-price grid: the greedy cover dominates",
		workers:   1000,
		tasks:     200,
		bundleMin: 50, bundleMax: 150,
		gridStep: 0.1,
		shards:   1,
		warmup:   2,
	},
	{
		name:      "auction-sharded",
		why:       "the auction shape over 4 shards: ingest queues, concurrent partition builds, the build barrier and merge",
		workers:   1000,
		tasks:     200,
		bundleMin: 50, bundleMax: 150,
		gridStep: 0.1,
		shards:   4,
		warmup:   2,
	},
	{
		name:      "campaign-durable",
		why:       "4000 workers over 400 tasks with a fsynced WAL: skill journaling, checkpoints and snapshots per round",
		workers:   4000,
		tasks:     400,
		bundleMin: 2, bundleMax: 6,
		gridStep: 0.5,
		shards:   1,
		durable:  true,
		warmup:   2,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) priceGrid() []float64 { return core.PriceGridRange(cMin, cMax, s.gridStep) }

func (s spec) thresholds() []float64 {
	th := make([]float64, s.tasks)
	for j := range th {
		th[j] = delta
	}
	return th
}

// mix is the splitmix64 finalizer: every draw the fleet makes is a mix
// of (seed, round, worker, task), so any round can be re-drawn exactly,
// in any order, without storing it.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func key(seed int64, parts ...int) uint64 {
	z := mix(uint64(seed))
	for _, p := range parts {
		z = mix(z ^ uint64(p))
	}
	return z
}

// stream is a splitmix64 generator.
type stream struct{ s uint64 }

func (r *stream) next() uint64   { r.s += 0x9e3779b97f4a7c15; return mix(r.s) }
func (r *stream) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *stream) intn(n int) int { return int(r.next() % uint64(n)) }
func unit(z uint64) float64      { return float64(z>>11) / (1 << 53) }
func workerID(i int) string      { return fmt.Sprintf("w%05d", i) }
func accuracyOf(seed int64, i int) float64 {
	return skillLo + (skillHi-skillLo)*unit(key(seed, -1, i))
}

// bidPlan is one worker's bid in one round.
type bidPlan struct {
	bundle []int
	cost   float64
}

// planner draws bids for a round. taken is scratch for sampling bundles
// without replacement.
type planner struct {
	s     spec
	seed  int64
	taken []bool
}

func newPlanner(s spec, seed int64) *planner {
	return &planner{s: s, seed: seed, taken: make([]bool, s.tasks)}
}

// plan draws worker i's bid for round into b, reusing b's bundle.
func (p *planner) plan(round, i int, b *bidPlan) {
	r := stream{s: key(p.seed, round, i)}
	size := p.s.bundleMin + r.intn(p.s.bundleMax-p.s.bundleMin+1)
	// Floyd's sampling of size distinct tasks.
	b.bundle = b.bundle[:0]
	for j := p.s.tasks - size; j < p.s.tasks; j++ {
		t := r.intn(j + 1)
		if p.taken[t] {
			t = j
		}
		p.taken[t] = true
		b.bundle = append(b.bundle, t)
	}
	for _, t := range b.bundle {
		p.taken[t] = false
	}
	sort.Ints(b.bundle)
	b.cost = cMin + r.float()*(cMax-cMin)
}

// label is worker i's sensed label for task in round: the round's true
// label, flipped with probability 1 - the worker's accuracy.
func label(seed int64, round, i, task int, acc float64) crowd.Label {
	l := crowd.Positive
	if key(seed, round, -2, task)&1 == 0 {
		l = crowd.Negative
	}
	if unit(key(seed, round, i, task)) >= acc {
		l = -l
	}
	return l
}
