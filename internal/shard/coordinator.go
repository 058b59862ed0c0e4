package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// Coordinator routes bids to partitions for one round at a time and
// merges the partition auctions at round close. Submit is safe for
// concurrent use; BeginRound / CloseRound / RunRound / SkillRow are the
// round lifecycle and are called one round at a time from the
// platform's round loop.
type Coordinator struct {
	cfg Config
	met shardMetrics

	// mu guards the round lifecycle and the bid buffers: Submit appends
	// under it, so no admission straddles a close or lands in the next
	// round. Once RunRound has closed the round, the buffers are read
	// without it until the next BeginRound.
	mu    sync.Mutex
	round int
	begun bool
	open  bool
	// queues[i] is partition i's bid buffer, reused across rounds.
	queues []*queue

	// stats[i] is partition i's cumulative counters across every round
	// served, read lock-free by the operator console while rounds run.
	stats []partStat

	// drawers[i] is partition i's price draw, prepared in the build
	// phase and drawn after the debit, its buffers reused across
	// rounds. insts[i] is the instance partition i's build assembles,
	// its Workers and Skills slices reused across rounds like the bid
	// buffers; its Skills, aligned with the sorted bids, are the rows
	// SkillRow reads, and empty until the round builds it. Within a
	// round each entry is touched only by the goroutine building
	// partition i inside RunRound's build barrier, then by RunRound's
	// draw loop after it, and rounds run one at a time, so no extra
	// locking is needed.
	drawers []*core.Drawer
	insts   []core.Instance
}

// NewCoordinator validates the configuration, applies defaults
// (QueueDepth 64, BatchSize 32, Quorum 1, and the admission cap
// described on Config.MaxBidsPerPartition), and returns a Coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.MaxBidsPerPartition == 0 && cfg.Partitions > 1 {
		cfg.MaxBidsPerPartition = cfg.QueueDepth * cfg.BatchSize
	}
	if cfg.Quorum < 1 {
		cfg.Quorum = 1
	}
	queues := make([]*queue, cfg.Partitions)
	drawers := make([]*core.Drawer, cfg.Partitions)
	for i := range queues {
		queues[i] = newQueue(cfg.MaxBidsPerPartition)
		drawers[i] = core.NewDrawer(core.WithTelemetry(cfg.Telemetry), core.WithEventLog(cfg.Events))
	}
	return &Coordinator{
		cfg:     cfg,
		met:     newShardMetrics(cfg.Telemetry, cfg.Partitions),
		queues:  queues,
		stats:   make([]partStat, cfg.Partitions),
		drawers: drawers,
		insts:   make([]core.Instance, cfg.Partitions),
	}, nil
}

// partStat is one partition's cumulative counters. Atomics, so Submit
// and the console reader never contend on the coordinator mutex.
type partStat struct {
	admitted  atomic.Int64
	overloads atomic.Int64
	killed    atomic.Int64
}

// PartitionStats is one partition's live view for the operator
// console: the current round's admissions plus cumulative admissions,
// backpressure rejections, and chaos kills.
type PartitionStats struct {
	Partition int `json:"partition"`
	// Pending is the current round's admitted-bid count, zero between
	// rounds.
	Pending int `json:"pending"`
	// QueueDepth and BatchSize echo the configured values whose
	// product is the default admission cap.
	QueueDepth int   `json:"queue_depth"`
	BatchSize  int   `json:"batch_size"`
	Admitted   int64 `json:"admitted_total"`
	Overloads  int64 `json:"overloads_total"`
	Killed     int64 `json:"killed_total"`
}

// Stats returns every partition's live stats, in partition order.
func (c *Coordinator) Stats() []PartitionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PartitionStats, c.cfg.Partitions)
	for i := range out {
		out[i] = PartitionStats{
			Partition:  i,
			QueueDepth: c.cfg.QueueDepth,
			BatchSize:  c.cfg.BatchSize,
			Admitted:   c.stats[i].admitted.Load(),
			Overloads:  c.stats[i].overloads.Load(),
			Killed:     c.stats[i].killed.Load(),
		}
		if c.open {
			out[i].Pending = len(c.queues[i].bids)
		}
	}
	return out
}

// Partitions returns the configured partition count.
func (c *Coordinator) Partitions() int { return c.cfg.Partitions }

// BeginRound opens a round: every partition's buffer is emptied and
// admissions open.
func (c *Coordinator) BeginRound(round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queues {
		q.reset()
		// Drop the previous round's bundles and rows with its bids.
		inst := &c.insts[i]
		clear(inst.Workers)
		clear(inst.Skills)
		inst.Workers, inst.Skills = inst.Workers[:0], inst.Skills[:0]
	}
	c.round = round
	c.begun = true
	c.open = true
}

// Submit routes one accepted bid to its consistent-hash partition.
// ErrOverloaded is the backpressure rejection (the partition's
// admission cap is reached): the bid was NOT admitted and the caller
// must reject it to the worker. ErrRoundClosed reports a submit
// outside an open round.
func (c *Coordinator) Submit(b Bid) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open {
		return ErrRoundClosed
	}
	i := PartitionFor(b.WorkerID, c.cfg.Partitions)
	if err := c.queues[i].put(b); err != nil {
		c.met.overloads.Inc()
		c.stats[i].overloads.Add(1)
		return err
	}
	c.met.bidsPerShard[i].Inc()
	c.stats[i].admitted.Add(1)
	return nil
}

// CloseRound stops admissions. Idempotent; safe to call on a
// coordinator whose round never began.
func (c *Coordinator) CloseRound() {
	c.mu.Lock()
	c.open = false
	c.mu.Unlock()
}

// SkillRow returns the skill row the round's partition instance holds
// for workerID — the one Config.Skills lookup made for its bid, as
// read-only as every SkillFunc row — or nil
// when the worker did not bid or its partition built no instance. It
// reads what RunRound built, so call it from the round loop after
// RunRound.
func (c *Coordinator) SkillRow(workerID string) []float64 {
	i := PartitionFor(workerID, c.cfg.Partitions)
	bids, rows := c.queues[i].bids, c.insts[i].Skills
	k := sort.Search(len(rows), func(k int) bool { return bids[k].WorkerID >= workerID })
	if k < len(rows) && bids[k].WorkerID == workerID {
		return rows[k]
	}
	return nil
}

// builtPartition is one partition's state after the build step; err
// is its build failure, behind StatusInfeasible when it is
// core.ErrInfeasible and with no status otherwise.
type builtPartition struct {
	status string
	bids   []Bid
	err    error
}

// buildPartition sorts the partition's admitted bids, consults the
// chaos seam, and prepares (but does not draw) its price draw. A kill
// or cancellation surfaces as StatusKilled and an uncoverable bid set
// as StatusInfeasible, which degrade the partition. Any other build
// error, such as a malformed skill row, leaves the status empty:
// RunRound fails the round with it.
func (c *Coordinator) buildPartition(ctx context.Context, round, idx int) builtPartition {
	bids := c.queues[idx].bids
	sortBids(bids)
	if c.cfg.Chaos != nil && c.cfg.Chaos(round, idx) {
		return builtPartition{status: StatusKilled, bids: bids}
	}
	if ctxErr(ctx) != nil {
		return builtPartition{status: StatusKilled, bids: bids}
	}
	if len(bids) == 0 {
		return builtPartition{status: StatusEmpty}
	}
	inst := &c.insts[idx]
	c.cfg.buildInstance(inst, bids)
	if err := c.drawers[idx].Prepare(*inst); err != nil {
		b := builtPartition{bids: bids, err: fmt.Errorf("shard: building partition %d: %w", idx, err)}
		if errors.Is(err, core.ErrInfeasible) {
			b.status = StatusInfeasible
		}
		return b
	}
	return builtPartition{status: StatusOK, bids: bids}
}

// RunRound closes the round (if still open), prepares every
// partition's price draw concurrently, debits the accountant once with
// the parallel-composed epsilon over the surviving partitions, then
// draws each survivor's clearing price (see drawOutcome) and merges the
// outcomes deterministically (partition order; winners sorted by
// worker ID).
//
// Failure modes: ErrNoPartitions when nothing survived, wrapping the
// first partition's build error if one failed to build
// (core.ErrInfeasible for an uncoverable bid set), ErrPartitionQuorum
// when fewer than Quorum partitions produced outcomes (both graceful
// degradations — no budget is spent), the accountant's own refusal,
// and a build error other than core.ErrInfeasible, which fails the
// round whatever the other partitions did. The partial RoundOutcome
// accompanies every error but the last, so the caller can
// fault-account the lost partitions.
func (c *Coordinator) RunRound(ctx context.Context, roundSeed int64) (RoundOutcome, error) {
	c.mu.Lock()
	c.open = false
	begun, round := c.begun, c.round
	c.mu.Unlock()
	if !begun {
		return RoundOutcome{}, ErrRoundClosed
	}
	reg := c.cfg.Telemetry
	ev := c.cfg.Events
	start := reg.Now()

	// Build phase: every partition concurrently. The results slice is
	// index-owned per goroutine and the WaitGroup is the barrier.
	n := c.cfg.Partitions
	built := make([]builtPartition, n)
	var wg sync.WaitGroup
	for i := range built {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			built[i] = c.buildPartition(ctx, round, i)
		}(i)
	}
	wg.Wait()
	for _, b := range built {
		if b.status == "" { // a build error other than core.ErrInfeasible
			return RoundOutcome{Round: round}, b.err
		}
	}

	out := RoundOutcome{Round: round, Partitions: make([]PartitionReport, n)}
	survivors := 0
	var buildErr error
	for i, b := range built {
		if buildErr == nil {
			buildErr = b.err
		}
		out.Partitions[i] = PartitionReport{
			Partition: i,
			Bidders:   len(c.queues[i].bids),
			Status:    b.status,
		}
		out.Bidders += out.Partitions[i].Bidders
		c.met.statusCounter(b.status).Inc()
		switch b.status {
		case StatusOK:
			survivors++
			out.Completed++
		case StatusKilled:
			out.Killed++
			c.stats[i].killed.Add(1)
		case StatusInfeasible:
			out.Infeasible++
		case StatusEmpty:
			out.Empty++
		}
	}

	if survivors == 0 {
		c.emitRound(&out)
		if buildErr != nil {
			return out, fmt.Errorf("%w: %w", ErrNoPartitions, buildErr)
		}
		return out, ErrNoPartitions
	}
	if survivors < c.cfg.Quorum {
		c.emitRound(&out)
		return out, fmt.Errorf("%w: %d of %d partitions produced outcomes",
			ErrPartitionQuorum, survivors, c.cfg.Quorum)
	}

	// One debit for the whole merged round: the partitions hold
	// disjoint worker sets, so parallel composition charges the max of
	// their (uniform) epsilons — the same float a single auction
	// debits, immediately before the price draws it covers.
	out.Epsilon = mergeEpsilon(c.cfg.Epsilon, survivors)
	if c.cfg.Accountant != nil {
		if err := c.cfg.Accountant.Spend(out.Epsilon); err != nil {
			c.emitRound(&out)
			return out, err
		}
	}

	// Draw phase: sequential in partition order so the merged outcome
	// is deterministic.
	for i, b := range built {
		if b.status != StatusOK {
			continue
		}
		oc := drawOutcome(c.drawers[i], roundSeed, i, n)
		rep := &out.Partitions[i]
		rep.Price = oc.Price
		rep.TotalPayment = oc.TotalPayment
		for _, w := range oc.Winners {
			rep.Winners = append(rep.Winners, b.bids[w].WorkerID)
			out.Winners = append(out.Winners, Winner{WorkerID: b.bids[w].WorkerID, Price: oc.Price})
		}
		out.TotalPayment += oc.TotalPayment
		ev.Debug("shard.partition",
			evlog.Int("round", round),
			evlog.Int("partition", i),
			evlog.Int("bidders", rep.Bidders),
			evlog.Int("winners", len(rep.Winners)),
			evlog.Aggregate("clearing_price", oc.Price),
			evlog.String("status", b.status))
	}
	sortWinners(out.Winners)
	c.emitRound(&out)
	c.met.mergeSeconds.Observe(reg.Since(start))
	return out, nil
}

// emitRound logs the merged round summary.
func (c *Coordinator) emitRound(out *RoundOutcome) {
	c.cfg.Events.Info("shard.round",
		evlog.Int("round", out.Round),
		evlog.Int("partitions", len(out.Partitions)),
		evlog.Int("completed", out.Completed),
		evlog.Int("killed", out.Killed),
		evlog.Int("infeasible", out.Infeasible),
		evlog.Int("empty", out.Empty),
		evlog.Int("bidders", out.Bidders),
		evlog.Int("winners", len(out.Winners)),
		evlog.Float("epsilon", out.Epsilon),
		evlog.Aggregate("total_payment", out.TotalPayment))
}
