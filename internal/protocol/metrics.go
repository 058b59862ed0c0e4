package protocol

import (
	"errors"
	"net"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// faultKind is one class of tolerated fault. Platform.fault records
// every one of them: into the round's tally, which RoundFaults reads,
// onto the kind's counter series, and as one round.fault event.
type faultKind int

const (
	faultRejected faultKind = iota
	faultTimedOut
	faultDuplicate
	faultWinnerUnreachable
	faultWinnerEvicted
	faultLoserUnnotified
	faultPartitionLost
	numFaultKinds
)

// faultKinds names each kind's round.fault kind and counter series.
// The handshake kinds count under mcs_protocol_bids_total, so
// accepted+rejected+timeout+duplicate accounts for every connection
// the round accepted.
var faultKinds = [numFaultKinds]struct{ event, series string }{
	faultRejected:          {"handshake_failed", `mcs_protocol_bids_total{result="rejected"}`},
	faultTimedOut:          {"handshake_failed", `mcs_protocol_bids_total{result="timeout"}`},
	faultDuplicate:         {"duplicate_bid", `mcs_protocol_bids_total{result="duplicate"}`},
	faultWinnerUnreachable: {"winner_unreachable", `mcs_protocol_round_faults_total{kind="winner_unreachable"}`},
	faultWinnerEvicted:     {"winner_evicted", `mcs_protocol_round_faults_total{kind="winner_evicted"}`},
	faultLoserUnnotified:   {"loser_unnotified", `mcs_protocol_round_faults_total{kind="loser_unnotified"}`},
	faultPartitionLost:     {"partition_lost", `mcs_protocol_round_faults_total{kind="partition_lost"}`},
}

// phase is one of the four phases a round runs, in order.
type phase int

const (
	phaseCollectBids phase = iota
	phaseAuction
	phaseLabels
	phaseAggregate
	numPhases
)

// phases names each phase, as its RoundStatus phase, its round.phase
// event and its trace span, and its mcs_protocol_phase_seconds series.
var phases = [numPhases]struct{ name, series string }{
	phaseCollectBids: {PhaseCollectBids, `mcs_protocol_phase_seconds{phase="collect"}`},
	phaseAuction:     {PhaseAuction, `mcs_protocol_phase_seconds{phase="auction"}`},
	phaseLabels:      {PhaseLabels, `mcs_protocol_phase_seconds{phase="labels"}`},
	phaseAggregate:   {PhaseAggregate, `mcs_protocol_phase_seconds{phase="aggregate"}`},
}

// platformMetrics bundles the platform's telemetry handles. All fields
// are nil when the platform runs without a registry, in which case
// every record is a no-op; instrumented code never branches on whether
// telemetry is enabled.
type platformMetrics struct {
	// mcs_protocol_bids_total{result="accepted"}; the other results
	// are fault kinds.
	bidsAccepted *telemetry.Counter
	// faults holds each fault kind's counter series.
	faults [numFaultKinds]*telemetry.Counter

	// mcs_protocol_connections_active: connections currently holding a
	// slot between accept and close; bounded by PlatformConfig.MaxConns
	// when set.
	connsActive *telemetry.Gauge

	// mcs_protocol_rounds_total{outcome=...}: every round ends in
	// exactly one of completed / degraded / failed.
	roundsCompleted *telemetry.Counter
	roundsDegraded  *telemetry.Counter
	roundsFailed    *telemetry.Counter

	// quorumFailures counts the ErrQuorumNotMet subset of degraded
	// rounds; budgetRefusals the rounds refused by the privacy
	// accountant (before collection or at the debit).
	quorumFailures *telemetry.Counter
	budgetRefusals *telemetry.Counter

	// Round latency, total and per phase.
	roundSeconds *telemetry.Histogram
	phaseSeconds [numPhases]*telemetry.Histogram
}

// newPlatformMetrics registers the platform's metric families eagerly,
// so a scrape during the first bid window already sees every series at
// zero. A nil registry yields all-nil handles (the nop).
func newPlatformMetrics(reg *telemetry.Registry) platformMetrics {
	const roundsHelp = "Auction rounds by final outcome."
	m := platformMetrics{
		// A family's first help wins, so the bids family keeps this one.
		bidsAccepted: reg.Counter(`mcs_protocol_bids_total{result="accepted"}`, "Bid handshake outcomes per connection."),

		connsActive: reg.Gauge("mcs_protocol_connections_active",
			"Connections currently holding an accepted slot."),

		roundsCompleted: reg.Counter(`mcs_protocol_rounds_total{outcome="completed"}`, roundsHelp),
		roundsDegraded:  reg.Counter(`mcs_protocol_rounds_total{outcome="degraded"}`, roundsHelp),
		roundsFailed:    reg.Counter(`mcs_protocol_rounds_total{outcome="failed"}`, roundsHelp),

		quorumFailures: reg.Counter("mcs_protocol_quorum_failures_total",
			"Rounds that closed the bid window below quorum."),
		budgetRefusals: reg.Counter("mcs_protocol_budget_refusals_total",
			"Rounds refused by the privacy accountant."),

		roundSeconds: reg.Histogram("mcs_protocol_round_seconds",
			"End-to-end wall-clock time per round.", telemetry.TimeBuckets),
	}
	for k, fk := range faultKinds {
		m.faults[k] = reg.Counter(fk.series, "Post-auction per-session faults the round tolerated.")
	}
	for ph, row := range phases {
		m.phaseSeconds[ph] = reg.Histogram(row.series, "Wall-clock time per round phase.", telemetry.TimeBuckets)
	}
	return m
}

// isTimeout reports whether err is (or wraps) a network timeout, which
// the bid counters separate from other handshake failures.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
