// Package shard partitions one sealed-bid auction round across N
// independent auction partitions, the layer between the transport
// (internal/protocol) and the auction core (internal/core) that lets
// the platform scale bid ingestion horizontally:
//
//   - workers are assigned to partitions by consistent jump hashing of
//     their worker ID (PartitionFor), so the assignment is stable,
//     uniform, and moves only ~1/(n+1) of the population when a
//     partition is added;
//   - each partition appends admitted bids to a buffer it reuses
//     across rounds, up to a per-round admission cap: a full partition
//     pushes back with ErrOverloaded rather than buffering without
//     bound;
//   - at round close every partition prepares its own core price draw
//     concurrently, draws after the round's one debit, and the
//     per-partition outcomes are merged in partition order into one
//     deterministic RoundOutcome;
//   - the merged round debits the shared privacy accountant exactly
//     once, with privacy.ParallelComposedEpsilon of the per-partition
//     epsilons: partitions hold disjoint worker sets, so parallel
//     composition applies and the debit equals the single uniform
//     epsilon — bit-for-bit the float a single auction spends;
//   - a lone partition is a whole unsharded round: it is uncapped by
//     default and draws from the round seed itself;
//   - only an uncoverable bid set (core.ErrInfeasible) degrades a
//     partition, as StatusInfeasible; any other build error fails the
//     round;
//   - a partition killed mid-round (the Chaos seam; see
//     faultnet.PartitionPlan) degrades the round to a fault-accounted
//     partial outcome over the surviving partitions instead of failing
//     it, as long as at least Quorum partitions produced outcomes.
//
// The coordinator is transport-agnostic: it consumes Bid values and
// emits RoundOutcome values, and the protocol layer owns connections,
// sessions, checkpoints and payments around it.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/privacy"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// Shard-layer errors.
var (
	// ErrBadConfig reports an invalid coordinator configuration.
	ErrBadConfig = errors.New("shard: invalid configuration")
	// ErrOverloaded is the backpressure rejection: the target
	// partition's per-round admission cap is reached. The caller
	// should reject the bid to the worker rather than buffer it — an
	// accepted bid is never dropped.
	ErrOverloaded = errors.New("shard: partition overloaded")
	// ErrRoundClosed reports a Submit outside an open round.
	ErrRoundClosed = errors.New("shard: round not accepting bids")
	// ErrNoPartitions reports a merged round in which no partition
	// produced an outcome (all killed, infeasible, or empty); it wraps
	// the first partition build error, if any.
	ErrNoPartitions = errors.New("shard: no partition produced an outcome")
	// ErrPartitionQuorum reports fewer surviving partition outcomes
	// than Config.Quorum requires.
	ErrPartitionQuorum = errors.New("shard: partition quorum not met")
)

// Bid is one accepted sealed bid routed into a partition. Price is the
// worker's DP-protected ask; it flows only into the partition's core
// auction instance, never into logs or metrics.
type Bid struct {
	WorkerID string
	Bundle   []int
	Price    float64
}

// SkillFunc supplies the platform's historical skill row for a worker
// (Section III-A: theta is maintained by the platform from its record
// of past labels; see protocol.SkillStore). It is the one definition;
// protocol.SkillFunc aliases it. A returned row may be shared across
// calls and rounds and must not be modified: the instances the
// coordinator builds and SkillRow's callers only read it.
type SkillFunc func(workerID string, numTasks int) []float64

// KillFunc is the chaos seam: consulted once per (round, partition)
// when a partition's auction starts, true simulates that partition
// crashing mid-round. Deterministic implementations live in
// internal/faultnet (PartitionPlan.Kills).
type KillFunc func(round, partition int) bool

// Config parameterizes a Coordinator.
type Config struct {
	// Partitions is the number of auction partitions (>= 1).
	Partitions int
	// QueueDepth and BatchSize size the default admission cap,
	// QueueDepth*BatchSize bids per partition per round; 0 defaults
	// them to 64 and 32.
	QueueDepth int
	BatchSize  int
	// MaxBidsPerPartition caps admissions per partition per round (the
	// per-shard connection limit): Submit refuses further bids with
	// ErrOverloaded instead of buffering them. 0 derives
	// QueueDepth*BatchSize, except that a lone partition, which holds
	// the whole round, is uncapped.
	MaxBidsPerPartition int
	// Quorum is the minimum number of partitions that must produce an
	// outcome for the merged round to complete; values below 1 mean 1.
	Quorum int

	// Auction parameters, mirrored from the platform configuration.
	NumTasks   int
	Thresholds []float64
	Epsilon    float64
	CMin       float64
	CMax       float64
	PriceGrid  []float64
	Skills     SkillFunc

	// Accountant, when non-nil, is debited exactly once per merged
	// round with the parallel-composed epsilon across the surviving
	// partitions.
	Accountant *mechanism.Accountant
	// Events receives shard.partition / shard.round events; nil
	// disables at zero cost.
	Events *evlog.Logger
	// Telemetry receives the mcs_shard_* metric families; nil disables
	// at zero cost.
	Telemetry *telemetry.Registry
	// Chaos, when non-nil, injects partition kills; see KillFunc.
	Chaos KillFunc
}

// validate checks the coordinator's own fields, then the auction terms
// with core's own check, so that a round never assembles its bids
// under terms every partition build would refuse.
func (c *Config) validate() error {
	switch {
	case c.Partitions < 1:
		return fmt.Errorf("%w: Partitions=%d", ErrBadConfig, c.Partitions)
	case c.Skills == nil:
		return fmt.Errorf("%w: nil SkillFunc", ErrBadConfig)
	case c.QueueDepth < 0 || c.BatchSize < 0 || c.MaxBidsPerPartition < 0:
		return fmt.Errorf("%w: QueueDepth=%d BatchSize=%d MaxBidsPerPartition=%d",
			ErrBadConfig, c.QueueDepth, c.BatchSize, c.MaxBidsPerPartition)
	}
	var terms core.Instance
	c.buildInstance(&terms, nil)
	if err := terms.ValidateTerms(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return nil
}

// Partition outcome statuses, as reported in PartitionReport.Status
// and the shard.partition event stream.
const (
	StatusOK         = "ok"
	StatusKilled     = "killed"
	StatusInfeasible = "infeasible"
	StatusEmpty      = "empty"
)

// Winner is one merged winner: the worker and the clearing price of
// the partition that selected her (her payment under the mechanism's
// single-price rule, applied per partition).
type Winner struct {
	WorkerID string  `json:"worker_id"`
	Price    float64 `json:"price"`
}

// PartitionReport summarizes one partition's share of a round.
type PartitionReport struct {
	Partition int `json:"partition"`
	// Bidders is how many bids the partition admitted this round.
	Bidders int `json:"bidders"`
	// Winners lists the partition's winning worker IDs in the order
	// its auction selected them; empty unless Status is "ok".
	Winners []string `json:"winners,omitempty"`
	// Price is the partition's sampled clearing price (a sanctioned
	// DP release of the partition's own mechanism); 0 unless "ok".
	Price float64 `json:"price"`
	// TotalPayment is Price * len(Winners).
	TotalPayment float64 `json:"total_payment"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
}

// RoundOutcome is the deterministic merge of one sharded round:
// partition reports in partition order and winners sorted by worker
// ID, so identical admitted bid sets yield byte-identical outcomes
// regardless of queue interleaving.
type RoundOutcome struct {
	Round      int               `json:"round"`
	Partitions []PartitionReport `json:"partitions"`
	// Winners is the union of the surviving partitions' winner sets,
	// sorted by worker ID, each carrying its partition's price.
	Winners []Winner `json:"winners"`
	// TotalPayment sums the per-partition totals.
	TotalPayment float64 `json:"total_payment"`
	// Bidders is the total number of admitted bids across partitions.
	Bidders int `json:"bidders"`
	// Completed / Killed / Infeasible / Empty count partitions by
	// final status; Killed partitions are the fault-accounted losses.
	Completed  int `json:"completed"`
	Killed     int `json:"killed,omitempty"`
	Infeasible int `json:"infeasible,omitempty"`
	Empty      int `json:"empty,omitempty"`
	// Epsilon is the merged round's single accountant debit: the
	// parallel composition (max) of the surviving partitions' epsilons.
	Epsilon float64 `json:"epsilon"`
}

// partitionSeed derives partition idx's mechanism seed from the round
// seed with a splitmix64 finalizer over a distinct stream constant, so
// partitions draw decorrelated prices while any process holding
// (roundSeed, idx) re-derives the identical stream.
func partitionSeed(roundSeed int64, idx int) int64 {
	z := uint64(roundSeed) ^ (uint64(idx)+1)*0xd1342543de82ef95
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// buildInstance assembles one partition's core auction instance in
// inst from its admitted bids (already sorted by worker ID), reusing
// inst's Workers and Skills slices as the queues reuse their bid
// buffers. The instance aliases the config's thresholds and grid and
// the bids' bundles: Drawer.Prepare validates it and draws from its own
// deep copy.
func (c *Config) buildInstance(inst *core.Instance, bids []Bid) {
	*inst = core.Instance{
		NumTasks:   c.NumTasks,
		Thresholds: c.Thresholds,
		Epsilon:    c.Epsilon,
		CMin:       c.CMin,
		CMax:       c.CMax,
		PriceGrid:  c.PriceGrid,
		Workers:    inst.Workers[:0],
		Skills:     inst.Skills[:0],
	}
	for _, b := range bids {
		inst.Workers = append(inst.Workers, core.Worker{ID: b.WorkerID, Bundle: b.Bundle, Bid: b.Price})
		inst.Skills = append(inst.Skills, c.Skills(b.WorkerID, c.NumTasks))
	}
}

// mergeEpsilon is the merged round's debit: parallel composition over
// the surviving partitions' (uniform) epsilons.
func mergeEpsilon(eps float64, survivors int) float64 {
	per := make([]float64, survivors)
	for i := range per {
		per[i] = eps
	}
	return privacy.ParallelComposedEpsilon(per...)
}

// drawOutcome draws partition idx's clearing price from its prepared
// drawer. Each of several partitions draws from its own derived seed; a
// lone partition draws from the round seed itself, so an unsharded
// round releases exactly the outcome core.New(inst).Run seeded with it
// would.
func drawOutcome(d *core.Drawer, roundSeed int64, idx, partitions int) core.Outcome {
	if partitions > 1 {
		roundSeed = partitionSeed(roundSeed, idx)
	}
	return d.Draw(rand.New(rand.NewSource(roundSeed)))
}

// sortBids orders a partition's admitted bids by worker ID so the
// assembled instance — and hence the partition's winner set — is
// independent of submission interleaving.
func sortBids(bids []Bid) {
	sort.Slice(bids, func(i, j int) bool { return bids[i].WorkerID < bids[j].WorkerID })
}

// sortWinners orders the merged winner list by worker ID; worker IDs
// are unique across partitions (each ID hashes to exactly one), so the
// order is total.
func sortWinners(ws []Winner) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].WorkerID < ws[j].WorkerID })
}

// ctxErr maps a cancelled context to its error, preserving nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
