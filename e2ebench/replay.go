package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/shard"
)

// maxReplays bounds the rounds a traced run replays: the first, middle
// and last traced rounds.
const maxReplays = 3

// replayBatch is the shard package's default ingest batch size.
const replayBatch = 32

// replayResult times one round's recorded inputs replayed into the
// public functions of core, shard and crowd, outside the served round.
type replayResult struct {
	newS, rebuildS, runS, pmfS float64
	allocsPerRebuild           float64
	shardS                     float64
	buildMaxOverMean           float64
	aggregateS, emS            float64
}

func replaySample(rounds []*roundRecord) []*roundRecord {
	if len(rounds) <= maxReplays {
		return rounds
	}
	return []*roundRecord{rounds[0], rounds[len(rounds)/2], rounds[len(rounds)-1]}
}

// replay rebuilds round rec's exact inputs (the bids are re-drawn from
// the seed; the skill estimates were recorded when the round began) and
// replays them: core auctions per partition (New, Rebuild, Run, PMF), a
// shard Coordinator round, and the label aggregation and truth-discovery
// EM the platform ran after the round. Replayed outcomes must equal the
// served ones: the core draw on unsharded rounds, the merged winners and
// prices on sharded rounds, and the aggregated labels on both.
func (c *campaign) replay(rec *roundRecord) (replayResult, []string) {
	var (
		res      replayResult
		problems []string
		s        = c.opt.spec
		k        = rec.index
		rr       = c.report.Rounds[k]
		n        = len(c.workers)
		bids     = make([]bidPlan, n)
		index    = make(map[string]int, n)
		seed     = protocol.RoundSeed(c.platSeed, k)
	)
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("replay of round %d: ", k)+fmt.Sprintf(format, args...))
	}
	row := func(i int) []float64 {
		r := make([]float64, s.tasks)
		for j := range r {
			r[j] = rec.trace.skills[i]
		}
		return r
	}
	for i, w := range c.workers {
		c.planner.plan(k, i, &bids[i])
		index[w.id] = i
	}
	instance := func(members []int) core.Instance {
		inst := core.Instance{
			NumTasks:   s.tasks,
			Thresholds: s.thresholds(),
			Epsilon:    epsilon,
			CMin:       cMin,
			CMax:       cMax,
			PriceGrid:  s.priceGrid(),
		}
		for _, i := range members {
			inst.Workers = append(inst.Workers, core.Worker{ID: c.workers[i].id, Bundle: bids[i].bundle, Bid: bids[i].cost})
			inst.Skills = append(inst.Skills, row(i))
		}
		return inst
	}

	parts := make([][]int, max(s.shards, 1))
	for i, w := range c.workers {
		p := shard.PartitionFor(w.id, len(parts))
		parts[p] = append(parts[p], i)
	}
	var builds []float64
	for _, members := range parts {
		inst := instance(members)
		start := time.Now()
		a, err := core.New(inst)
		d := time.Since(start).Seconds()
		if err != nil {
			bad("core.New: %v", err)
			continue
		}
		res.newS += d
		builds = append(builds, d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		err = a.Rebuild(inst)
		res.rebuildS += time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		res.allocsPerRebuild += float64(after.Mallocs - before.Mallocs)
		if err != nil {
			bad("Rebuild: %v", err)
			continue
		}
		r := rand.New(rand.NewSource(seed))
		start = time.Now()
		out := a.Run(r)
		res.runS += time.Since(start).Seconds()
		start = time.Now()
		a.PMF()
		res.pmfS += time.Since(start).Seconds()
		if len(parts) == 1 && (out.Price != rr.Outcome.Price || !slices.Equal(out.Winners, rr.Outcome.Winners)) {
			bad("core draws price %v with %d winners, the platform served %v with %d",
				out.Price, len(out.Winners), rr.Outcome.Price, len(rr.Outcome.Winners))
		}
	}
	if len(builds) > 0 {
		res.buildMaxOverMean = slices.Max(builds) / (sum(builds) / float64(len(builds)))
	}

	// Room for the whole fleet in one partition: admission limits are
	// not what the replay measures, and they do not change outcomes.
	coord, err := shard.NewCoordinator(shard.Config{
		Partitions:          len(parts),
		QueueDepth:          n/replayBatch + 1,
		BatchSize:           replayBatch,
		MaxBidsPerPartition: n,
		NumTasks:            s.tasks,
		Thresholds:          s.thresholds(),
		Epsilon:             epsilon,
		CMin:                cMin,
		CMax:                cMax,
		PriceGrid:           s.priceGrid(),
		Skills:              func(id string, _ int) []float64 { return row(index[id]) },
	})
	if err != nil {
		bad("shard.NewCoordinator: %v", err)
	} else {
		start := time.Now()
		coord.BeginRound(k)
		for i, w := range c.workers {
			if err := coord.Submit(shard.Bid{WorkerID: w.id, Bundle: bids[i].bundle, Price: bids[i].cost}); err != nil {
				bad("Submit %s: %v", w.id, err)
				break
			}
		}
		so, err := coord.RunRound(context.Background(), seed)
		res.shardS = time.Since(start).Seconds()
		switch {
		case err != nil:
			bad("Coordinator.RunRound: %v", err)
		case rr.Sharding != nil && (so.TotalPayment != rr.Sharding.TotalPayment || !slices.Equal(so.Winners, rr.Sharding.Winners)):
			bad("coordinator merges %d winners paid %v, the platform served %d paid %v",
				len(so.Winners), so.TotalPayment, len(rr.Sharding.Winners), rr.Sharding.TotalPayment)
		}
	}

	var reports []crowd.Report
	for _, i := range rec.won {
		for _, task := range bids[i].bundle {
			reports = append(reports, crowd.Report{Worker: i, Task: task,
				Label: label(c.opt.seed, k, i, task, c.workers[i].acc)})
		}
	}
	skills := make([][]float64, n)
	for i := range skills {
		skills[i] = row(i)
	}
	start := time.Now()
	agg, err := crowd.WeightedAggregate(reports, skills, s.tasks)
	res.aggregateS = time.Since(start).Seconds()
	if err != nil || !slices.Equal(agg, rr.Aggregated) {
		bad("aggregation differs from the served labels (%v)", err)
	}
	start = time.Now()
	if _, err := crowd.EstimateSkills(reports, n, s.tasks, crowd.EMOptions{}); err != nil {
		bad("EstimateSkills: %v", err)
	}
	res.emS = time.Since(start).Seconds()
	return res, problems
}
