package shard

import (
	"strconv"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// shardMetrics bundles the coordinator's telemetry handles; all nil
// (the nop) without a registry, per the module convention.
type shardMetrics struct {
	// mcs_shard_bids_total{shard=...}: admitted bids per partition.
	bidsPerShard []*telemetry.Counter
	// mcs_shard_overloads_total: submissions rejected by the
	// per-round admission cap.
	overloads *telemetry.Counter
	// mcs_shard_partitions_total{status=...}: partition outcomes per
	// merged round.
	partOK         *telemetry.Counter
	partKilled     *telemetry.Counter
	partInfeasible *telemetry.Counter
	partEmpty      *telemetry.Counter
	// mcs_shard_merge_seconds: wall-clock time of the run-and-merge
	// step at round close.
	mergeSeconds *telemetry.Histogram
}

func newShardMetrics(reg *telemetry.Registry, partitions int) shardMetrics {
	const (
		bidsHelp = "Admitted bids per partition."
		partHelp = "Partition outcomes per merged round."
	)
	m := shardMetrics{
		overloads: reg.Counter("mcs_shard_overloads_total",
			"Bid submissions rejected by partition backpressure."),
		partOK:         reg.Counter(`mcs_shard_partitions_total{status="ok"}`, partHelp),
		partKilled:     reg.Counter(`mcs_shard_partitions_total{status="killed"}`, partHelp),
		partInfeasible: reg.Counter(`mcs_shard_partitions_total{status="infeasible"}`, partHelp),
		partEmpty:      reg.Counter(`mcs_shard_partitions_total{status="empty"}`, partHelp),
		mergeSeconds: reg.Histogram("mcs_shard_merge_seconds",
			"Wall-clock time of the partition run-and-merge step.", telemetry.TimeBuckets),
	}
	m.bidsPerShard = make([]*telemetry.Counter, partitions)
	for i := range m.bidsPerShard {
		m.bidsPerShard[i] = reg.Counter(
			"mcs_shard_bids_total{shard="+strconv.Quote(strconv.Itoa(i))+"}", bidsHelp)
	}
	return m
}

// statusCounter maps a partition status to its counter handle.
func (m *shardMetrics) statusCounter(status string) *telemetry.Counter {
	switch status {
	case StatusKilled:
		return m.partKilled
	case StatusInfeasible:
		return m.partInfeasible
	case StatusEmpty:
		return m.partEmpty
	default:
		return m.partOK
	}
}
