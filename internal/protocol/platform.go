package protocol

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// Platform-side errors.
var (
	ErrNoBids       = errors.New("protocol: no valid bids received")
	ErrBadPlatform  = errors.New("protocol: invalid platform configuration")
	ErrDuplicateBid = errors.New("protocol: duplicate worker id")
	// ErrQuorumNotMet reports a round that closed its bid window with
	// fewer accepted bids than cfg.Quorum requires. The round spent no
	// privacy budget; the platform may simply run another round.
	ErrQuorumNotMet = errors.New("protocol: quorum not met")
	// ErrTooManyConnections reports a connection rejected because the
	// platform is already servicing cfg.MaxConns connections; the
	// worker should back off and retry.
	ErrTooManyConnections = errors.New("protocol: connection limit reached")
)

// IsDegraded reports whether a round error is a graceful degradation —
// too few bids survived the network, the surviving bids cannot cover
// the tasks, or too few shard partitions survived a sharded round — as
// opposed to a hard failure. Degraded rounds never debit the privacy
// accountant, so a campaign can safely skip them and try again.
func IsDegraded(err error) bool {
	return errors.Is(err, ErrNoBids) ||
		errors.Is(err, ErrQuorumNotMet) ||
		errors.Is(err, core.ErrInfeasible) ||
		errors.Is(err, shard.ErrNoPartitions) ||
		errors.Is(err, shard.ErrPartitionQuorum)
}

// SkillFunc supplies the platform's historical skill row for a worker;
// shard.SkillFunc is its one definition.
type SkillFunc = shard.SkillFunc

// PlatformConfig parameterizes one auction round.
type PlatformConfig struct {
	// Task model.
	NumTasks   int
	Thresholds []float64
	// Auction parameters.
	Epsilon   float64
	CMin      float64
	CMax      float64
	PriceGrid []float64
	// Skills supplies the theta row per worker.
	Skills SkillFunc
	// BidWindow is how long bids are accepted after the round starts.
	BidWindow time.Duration
	// MinWorkers closes the window early once this many bids arrived;
	// 0 means wait out the whole window.
	MinWorkers int
	// Quorum is the minimum number of accepted bids required to run
	// the auction; a round that closes its window with fewer fails
	// with ErrQuorumNotMet (ErrNoBids when zero bids arrived) without
	// spending privacy budget. Values below 1 mean 1.
	Quorum int
	// IOTimeout bounds each message exchange; defaults to 10s.
	IOTimeout time.Duration
	// Seed roots the mechanism's randomness; 0 derives from the clock.
	Seed int64
	// Accountant, when non-nil, meters the platform's cumulative
	// privacy loss under basic sequential composition. The budget is
	// checked before bids are collected and debited exactly once per
	// round, at the moment the price draw is committed; rounds that
	// degrade before that point (no bids, no quorum, infeasible) spend
	// nothing.
	Accountant *mechanism.Accountant
	// Events receives the platform's structured event stream: round
	// lifecycle, per-phase completions, tolerated faults, and bid
	// handshake outcomes, each carrying the round index they join on.
	// evlog is the protocol's only sanctioned logging sink
	// (mcs-lint MCS-DPL003); bid values never enter the stream — the
	// field API admits them only through Redacted/Aggregate wrappers.
	// Nil disables event logging at zero cost.
	Events *evlog.Logger
	// Telemetry, when non-nil, receives the platform's metric families
	// (mcs_protocol_*) and is threaded into the auction core and the
	// privacy accountant. Nil disables all recording at zero cost.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span tree per round
	// (round -> collect-bids / auction / labels / aggregate); a round
	// that ends early holds only the phases it ran.
	Tracer *telemetry.Tracer
	// Checkpoints, when non-nil, journals campaign progress: a
	// round.begin record before each round attempt and a round.complete
	// record (payment, paid worker IDs) after. A begin that cannot be
	// journaled fails the round before any side effects — a round whose
	// attempt could be forgotten by a crash might re-pay its winners on
	// resume.
	Checkpoints store.CampaignStore
	// StartRound is the first round index this platform will run — 0
	// for a fresh campaign, store.CampaignState.NextRound when resuming
	// a recovered one. Each round derives its mechanism randomness from
	// RoundSeed(Seed, index), so a resumed campaign re-creates the
	// exact per-round seeds of the unbroken run without ever re-drawing
	// a round it already paid.
	StartRound int
	// Shards partitions each round's accepted bids across that many
	// auction partitions by consistent worker-ID hashing (see
	// internal/shard): the partitions run concurrently at round close
	// and their outcomes merge under a single parallel-composition
	// debit — the same epsilon an unsharded round spends, bit-for-bit.
	// 0 or 1 runs every round as one partition, which draws from the
	// round seed itself and reports a single auction's outcome.
	Shards int
	// ShardMaxBids caps admissions per partition per round; a full
	// partition rejects further bids with backpressure rather than
	// buffering without bound. 0 takes the shard default: 2048 bids
	// per partition when sharded, no cap when unsharded.
	ShardMaxBids int
	// ShardQuorum is the minimum number of partitions that must
	// produce an outcome for a sharded round to complete; a partition
	// killed mid-round degrades the round to a fault-accounted partial
	// outcome over the survivors as long as the quorum holds. Values
	// below 1 mean 1.
	ShardQuorum int
	// ShardChaos, when non-nil, is consulted once per (round,
	// partition) at auction time: true simulates that partition
	// crashing mid-round. Deterministic implementations live in
	// internal/faultnet (PartitionPlan.Kills).
	ShardChaos shard.KillFunc
	// MaxConns caps concurrently serviced connections; further
	// connects during a round are rejected with ErrTooManyConnections
	// (counted under mcs_protocol_bids_total{result="rejected"}). 0
	// means unlimited. The live count is exported as the
	// mcs_protocol_connections_active gauge either way.
	MaxConns int
}

// validate checks the platform's own fields. The auction terms are
// checked by core, when NewPlatform builds the round coordinator; only
// the rule that no grid price lies below CMin, which no bid can clear,
// is the platform's.
func (c *PlatformConfig) validate() error {
	switch {
	case slices.ContainsFunc(c.PriceGrid, func(p float64) bool { return p < c.CMin }):
		return fmt.Errorf("%w: price grid below cmin %v", ErrBadPlatform, c.CMin)
	case c.BidWindow <= 0:
		return fmt.Errorf("%w: BidWindow=%v", ErrBadPlatform, c.BidWindow)
	case c.Quorum < 0:
		return fmt.Errorf("%w: Quorum=%d", ErrBadPlatform, c.Quorum)
	case c.StartRound < 0:
		return fmt.Errorf("%w: StartRound=%d", ErrBadPlatform, c.StartRound)
	case c.Shards < 0 || c.ShardMaxBids < 0:
		return fmt.Errorf("%w: Shards=%d ShardMaxBids=%d", ErrBadPlatform, c.Shards, c.ShardMaxBids)
	case c.ShardQuorum > max(c.Shards, 1):
		return fmt.Errorf("%w: ShardQuorum=%d exceeds Shards=%d", ErrBadPlatform, c.ShardQuorum, c.Shards)
	case c.MaxConns < 0:
		return fmt.Errorf("%w: MaxConns=%d", ErrBadPlatform, c.MaxConns)
	}
	return nil
}

// RoundSeed derives the mechanism seed for one round from the
// campaign's base seed. The derivation is a splitmix64 finalizer — a
// bijective avalanche mix — so distinct rounds get decorrelated
// streams while any process holding (base, round) re-derives the
// identical seed. This is what lets a killed-and-restarted campaign
// resume at round k with exactly the randomness the unbroken run would
// have used, instead of re-seeding every round from the base value
// (which both correlated rounds and made resumption re-draw round 0's
// stream forever).
func RoundSeed(base int64, round int) int64 {
	z := uint64(base) + (uint64(round)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RoundFaults counts the per-session failures a round tolerated
// instead of failing. A fully healthy round is the zero value.
type RoundFaults struct {
	// HandshakesFailed counts connections that never produced an
	// accepted bid: timeouts, cut streams, corrupt frames, bad bids.
	HandshakesFailed int `json:"handshakes_failed"`
	// DuplicatesRejected counts bids refused because the worker ID had
	// already bid this round.
	DuplicatesRejected int `json:"duplicates_rejected"`
	// WinnersUnreachable counts winners whose outcome notification or
	// payment could not be written; like evicted winners, they are not
	// paid.
	WinnersUnreachable int `json:"winners_unreachable"`
	// WinnersEvicted counts winners that failed to deliver labels
	// within the IO timeout; the round completes without their data.
	WinnersEvicted int `json:"winners_evicted"`
	// LosersUnnotified counts losers whose outcome notification failed
	// (harmless: they time out on their own).
	LosersUnnotified int `json:"losers_unnotified"`
	// PartitionsLost counts auction partitions killed mid-round (see
	// ShardChaos); a sharded round completes as a partial outcome over
	// the survivors.
	PartitionsLost int `json:"partitions_lost,omitempty"`
}

// Total sums all tolerated faults.
func (f RoundFaults) Total() int {
	return f.HandshakesFailed + f.DuplicatesRejected + f.WinnersUnreachable +
		f.WinnersEvicted + f.LosersUnnotified + f.PartitionsLost
}

// roundFaults reads the running round's tally as its RoundFaults.
func (p *Platform) roundFaults() RoundFaults {
	n := func(k faultKind) int { return int(p.tally[k].Load()) }
	return RoundFaults{
		HandshakesFailed:   n(faultRejected) + n(faultTimedOut),
		DuplicatesRejected: n(faultDuplicate),
		WinnersUnreachable: n(faultWinnerUnreachable),
		WinnersEvicted:     n(faultWinnerEvicted),
		LosersUnnotified:   n(faultLoserUnnotified),
		PartitionsLost:     n(faultPartitionLost),
	}
}

// fault records one tolerated fault of the given kind in round: it
// adds it to the round's tally, bumps the kind's counter series and
// emits one round.fault event carrying fields.
func (p *Platform) fault(kind faultKind, round int, fields ...evlog.Field) {
	p.tally[kind].Add(1)
	p.met.faults[kind].Inc()
	p.cfg.Events.Warn("round.fault", append([]evlog.Field{
		evlog.String("kind", faultKinds[kind].event),
		evlog.Int("round", round),
	}, fields...)...)
}

// RoundReport summarizes one completed auction round.
type RoundReport struct {
	// Round is the campaign-wide round index (starting at
	// cfg.StartRound for a recovered campaign), the same index
	// journaled in the store's round.begin / round.complete records.
	Round int
	// Bidders is the number of accepted bids.
	Bidders int
	// Outcome is the auction result; winner indices refer to bidders
	// sorted by worker ID (WorkerIDs maps them back to identities).
	Outcome core.Outcome
	// WorkerIDs lists bidders in index order (sorted by ID, so the
	// report is deterministic regardless of connection arrival order).
	WorkerIDs []string
	// Aggregated is the platform's label estimate per task after
	// weighted aggregation of winner reports.
	Aggregated []crowd.Label
	// ReportsReceived counts the label reports admitted from winners:
	// one per task of a winner's bid bundle, labelled +1 or -1.
	ReportsReceived int
	// Paid lists, sorted, the winners whose payment frame was written:
	// winners evicted or unreachable in the labels phase are not paid.
	Paid []string
	// DeliveredPayment sums the payments written to Paid. It falls short
	// of Outcome.TotalPayment, the mechanism's price times its winners,
	// by the payments of the winners not paid. The journal and the
	// campaign total record it.
	DeliveredPayment float64
	// Faults accounts the per-session failures the round survived.
	Faults RoundFaults
	// Sharding carries the per-partition breakdown of a sharded round
	// (Shards > 1): partition statuses, bid counts, and per-partition
	// clearing prices. Nil for unsharded rounds. For sharded rounds
	// Outcome.Price is 0 — each winner is paid its own partition's
	// clearing price (see Sharding.Winners) and Outcome.TotalPayment
	// sums the partition totals.
	Sharding *shard.RoundOutcome `json:",omitempty"`
}

// Platform runs DP-hSRC auction rounds over TCP.
type Platform struct {
	cfg PlatformConfig
	met platformMetrics
	// coord runs every round's auction: Shards partitions, or one for
	// an unsharded platform.
	coord *shard.Coordinator
	// frames holds the frames that never change within a campaign,
	// encoded once by NewPlatform.
	frames platformFrames
	// bidders holds the worker IDs whose bids the running round has
	// admitted, so a second bid under one ID is refused. Only
	// collectBids' handshakes touch it, under its mu. Each round clears
	// it first, and collectBids waits out every handshake before it
	// returns, so one map serves every round.
	bidders map[string]bool
	// tally counts the running round's tolerated faults by kind. Any
	// of the round's goroutines may add to it; each round clears it
	// first and reads it once they have ended.
	tally [numFaultKinds]atomic.Int64
	// connsActive tracks concurrently serviced connections for the
	// MaxConns admission check; the telemetry gauge mirrors it (the
	// atomic is authoritative because nil-registry gauges cannot be
	// read back).
	connsActive atomic.Int64
	// roundMu guards nextRound, the campaign-wide index handed to the
	// next round attempt. It starts at cfg.StartRound and advances once
	// per attempt, completed or not, matching the journal's
	// skip-begun-rounds resume rule.
	roundMu   sync.Mutex
	nextRound int
	// statusMu guards status, the live round/phase position published
	// to the operator console.
	statusMu sync.Mutex
	status   RoundStatus
}

// platformFrames are the platform's constant frames. Every connection
// writes the same bytes, concurrently, so they are read-only once
// built: a transport that modified a frame it was handed would corrupt
// every later connection's copy.
type platformFrames struct {
	// announce carries the bid terms of every handshake.
	announce []byte
	// lost is a loser's outcome.
	lost []byte
	// done closes every settled conversation.
	done []byte
	// overLimit turns away a connection over MaxConns.
	overLimit []byte
}

// newPlatformFrames encodes the constant frames of cfg, a configuration
// whose terms core has accepted. The announce carries only the terms a
// bid reads, so its size does not grow with the task count or the
// price grid, and core has refused the NaN and infinite values json
// cannot encode: no frame can fail.
func newPlatformFrames(cfg *PlatformConfig) platformFrames {
	announce, _ := encodeFrame(Message{
		Type:            TypeAnnounce,
		NumTasks:        cfg.NumTasks,
		Epsilon:         cfg.Epsilon,
		CMin:            cfg.CMin,
		CMax:            cfg.CMax,
		BidWindowMillis: cfg.BidWindow.Milliseconds(),
	})
	lost, _ := encodeFrame(Message{Type: TypeOutcome})
	done, _ := encodeFrame(Message{Type: TypeDone})
	overLimit, _ := encodeFrame(Message{Type: TypeError, Err: ErrTooManyConnections.Error()})
	return platformFrames{announce: announce, lost: lost, done: done, overLimit: overLimit}
}

// RoundStatus is the platform's live position in the round lifecycle,
// read by the operator console. Phase is PhaseIdle between rounds and
// one of the four round phase names while one runs.
type RoundStatus struct {
	Round int    `json:"round"`
	Phase string `json:"phase"`
}

// Round phase names as published in RoundStatus (and on round.phase
// events, except idle which marks the gap between rounds).
const (
	PhaseIdle        = "idle"
	PhaseCollectBids = "collect-bids"
	PhaseAuction     = "auction"
	PhaseLabels      = "labels"
	PhaseAggregate   = "aggregate"
)

// setStatus publishes the platform's position.
func (p *Platform) setStatus(round int, phase string) {
	p.statusMu.Lock()
	p.status = RoundStatus{Round: round, Phase: phase}
	p.statusMu.Unlock()
}

// Status returns the live round/phase position.
func (p *Platform) Status() RoundStatus {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	return p.status
}

// ShardStats returns the live per-partition stats, nil when the
// platform runs unsharded.
func (p *Platform) ShardStats() []shard.PartitionStats {
	if p.coord.Partitions() == 1 {
		return nil
	}
	return p.coord.Stats()
}

// ConnectionsActive returns the number of worker connections currently
// being serviced.
func (p *Platform) ConnectionsActive() int64 {
	return p.connsActive.Load()
}

// NewPlatform validates the configuration and returns a Platform. Its
// round coordinator refuses any auction terms core would refuse, so a
// bad term fails here with ErrBadPlatform, not each round once its
// bids are in.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	if cfg.Quorum < 1 {
		cfg.Quorum = 1
	}
	if cfg.Seed == 0 {
		//mcslint:allow MCS-DET002 fallback seed for callers that supplied none; the chosen value is logged and exported via mcs_protocol_seed_info so the run stays replayable after the fact
		cfg.Seed = time.Now().UnixNano()
	}
	coord, err := shard.NewCoordinator(shard.Config{
		Partitions:          max(cfg.Shards, 1),
		MaxBidsPerPartition: cfg.ShardMaxBids,
		Quorum:              cfg.ShardQuorum,
		NumTasks:            cfg.NumTasks,
		Thresholds:          cfg.Thresholds,
		Epsilon:             cfg.Epsilon,
		CMin:                cfg.CMin,
		CMax:                cfg.CMax,
		PriceGrid:           cfg.PriceGrid,
		Skills:              cfg.Skills,
		Accountant:          cfg.Accountant,
		Events:              cfg.Events,
		Telemetry:           cfg.Telemetry,
		Chaos:               cfg.ShardChaos,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlatform, err)
	}
	p := &Platform{
		cfg:       cfg,
		met:       newPlatformMetrics(cfg.Telemetry),
		coord:     coord,
		frames:    newPlatformFrames(&cfg),
		bidders:   make(map[string]bool),
		nextRound: cfg.StartRound,
		status:    RoundStatus{Round: cfg.StartRound, Phase: PhaseIdle},
	}
	cfg.Events.Info("platform.seed", evlog.Int64("seed", cfg.Seed))
	// An int64 seed exceeds float64's exact-integer range, so the value
	// rides in a label (info-style gauge) rather than the sample.
	cfg.Telemetry.Gauge(
		fmt.Sprintf("mcs_protocol_seed_info{seed=%q}", strconv.FormatInt(cfg.Seed, 10)),
		"Mechanism seed for this platform; the value is the seed label.").Set(1)
	if cfg.Accountant != nil {
		cfg.Accountant.Instrument(cfg.Telemetry)
		if cfg.Events != nil {
			// Only attach when this platform actually logs events: the
			// accountant may be shared with another platform whose
			// stream must not be torn down by this one's nil.
			cfg.Accountant.ObserveEvents(cfg.Events)
		}
	}
	return p, nil
}

// Seed returns the mechanism seed the platform resolved at
// construction (the configured value, or the clock-derived fallback),
// so callers can record it in a run manifest.
func (p *Platform) Seed() int64 { return p.cfg.Seed }

// claimRound hands out the next campaign-wide round index. Every
// attempt consumes an index — degraded rounds too — so the journal's
// resume point (one past the highest begun round) and the live
// counter always agree.
func (p *Platform) claimRound() int {
	p.roundMu.Lock()
	defer p.roundMu.Unlock()
	r := p.nextRound
	p.nextRound++
	return r
}

// session is one worker's connection state.
type session struct {
	conn     *Conn
	workerID string
	bundle   []int
	price    float64
}

// RunRound accepts bids on the listener for the configured window, runs
// the DP-hSRC auction, collects winner labels, aggregates and settles.
// The listener is not closed; callers own its lifecycle. ctx cancels
// the round early. A Platform runs one round at a time: RunRound and
// the campaign loops must not be called concurrently on it.
//
// The listener must support accept deadlines (SetDeadline, as
// *net.TCPListener does): the window closes by setting one in the
// past. A listener without it, or whose deadline cannot be cleared,
// fails the round with ErrBadPlatform before a round index is claimed.
//
// The round either completes with at least cfg.Quorum bids or fails
// with a typed error (ErrNoBids, ErrQuorumNotMet, core.ErrInfeasible,
// mechanism.ErrBudgetExhausted); individual worker failures downgrade
// to RoundFaults entries rather than failing the round.
func (p *Platform) RunRound(ctx context.Context, ln net.Listener) (RoundReport, error) {
	rep, _, err := p.runRoundCollecting(ctx, ln)
	return rep, err
}

// deadlineListener is a listener whose blocked Accept can be woken by
// setting an accept deadline in the past: net.TCPListener, the
// internal/faultnet wrapper, and the in-memory listeners the tests and
// the load generator use.
type deadlineListener interface {
	net.Listener
	SetDeadline(time.Time) error
}

// roundLabels is what a completed round hands truth discovery: the
// admitted label reports, whose Worker is the reporting winner's rank
// (see roundWinner), and the winners' IDs by rank.
type roundLabels struct {
	reports []crowd.Report
	winners []string
}

// runRoundCollecting is RunRound plus the round's labels, which the
// multi-round campaign feeds to truth discovery. It wraps roundPhases
// with the round-level telemetry: the round's timeline, and the final
// outcome tally.
func (p *Platform) runRoundCollecting(ctx context.Context, ln net.Listener) (RoundReport, roundLabels, error) {
	dl, ok := ln.(deadlineListener)
	if !ok {
		return RoundReport{}, roundLabels{}, fmt.Errorf("%w: listener %T has no SetDeadline to close the bid window", ErrBadPlatform, ln)
	}
	// Clear the past deadline a previous round's close left set.
	if err := dl.SetDeadline(time.Time{}); err != nil {
		return RoundReport{}, roundLabels{}, fmt.Errorf("%w: clearing the accept deadline: %v", ErrBadPlatform, err)
	}
	ev := p.cfg.Events
	round := p.claimRound()
	if p.cfg.Checkpoints != nil {
		// The begin checkpoint is write-ahead: a round whose attempt is
		// not durable must not run, or a crash could re-run (and re-pay)
		// it on resume.
		if err := p.cfg.Checkpoints.RecordRoundBegin(round); err != nil {
			return RoundReport{Round: round}, roundLabels{}, fmt.Errorf("protocol: checkpointing round %d begin: %w", round, err)
		}
	}
	defer p.setStatus(round, PhaseIdle)
	p.tally = [numFaultKinds]atomic.Int64{}
	tl := p.startTimeline(round)
	ev.Info("round.start", evlog.Int("round", round))
	rep, labels, err := p.roundPhases(ctx, dl, &tl)
	rep.Round = round
	rep.Faults = p.roundFaults()
	tl.end()
	switch {
	case err == nil:
		if p.cfg.Checkpoints != nil {
			// Journal the completion with the paid winners before the
			// report is released: if this write fails, the round stays
			// "begun" in the journal and resume skips it — which is the
			// safe reading, since its payments have already gone out.
			if cerr := p.cfg.Checkpoints.RecordRoundComplete(round, rep.DeliveredPayment, rep.Paid); cerr != nil {
				p.met.roundsFailed.Inc()
				ev.Error("round.failed", evlog.Int("round", round), evlog.String("reason", "checkpoint"))
				return rep, labels, fmt.Errorf("protocol: checkpointing round %d completion: %w", round, cerr)
			}
		}
		p.met.roundsCompleted.Inc()
		fields := []evlog.Field{
			evlog.Int("round", round),
			evlog.Int("bidders", rep.Bidders),
			evlog.Int("winners", len(rep.Outcome.Winners)),
			evlog.Int("reports_received", rep.ReportsReceived),
			evlog.Int("faults", rep.Faults.Total()),
		}
		// The clearing price is the mechanism's DP output — the one
		// sanctioned release — so it rides in an Aggregate wrapper. A
		// sharded round has no single price (the merged Outcome.Price
		// is 0 by contract; each partition's is on shard.partition),
		// so it carries none.
		if rep.Sharding == nil {
			fields = append(fields, evlog.Aggregate("clearing_price", rep.Outcome.Price))
		}
		ev.Info("round.complete", fields...)
	case errors.Is(err, ErrQuorumNotMet):
		p.met.quorumFailures.Inc()
		p.met.roundsDegraded.Inc()
		ev.Warn("round.degraded", evlog.Int("round", round), evlog.String("reason", "quorum_not_met"))
	case IsDegraded(err):
		p.met.roundsDegraded.Inc()
		ev.Warn("round.degraded", evlog.Int("round", round), evlog.String("reason", degradeReason(err)))
	case errors.Is(err, mechanism.ErrBudgetExhausted):
		p.met.budgetRefusals.Inc()
		p.met.roundsFailed.Inc()
		ev.Error("round.failed", evlog.Int("round", round), evlog.String("reason", "budget_exhausted"))
	default:
		p.met.roundsFailed.Inc()
		ev.Error("round.failed", evlog.Int("round", round), evlog.String("reason", "error"))
	}
	return rep, labels, err
}

// timeline times one round on the wall clock, read once at each
// boundary. That one reading feeds every record of the boundary:
// entering a phase publishes it as the platform's status; leaving it
// takes one duration, which the phase's histogram observes, its
// round.phase event carries and its trace span lasts; ending the round
// observes mcs_protocol_round_seconds and hands the finished round tree
// to the tracer. A phase span starts at its offset from the round's
// start, so every phase nests inside its round.
type timeline struct {
	p     *Platform
	round int
	start time.Time // when the round began
	cur   phase     // the running phase
	mark  time.Time // when cur began
	tree  telemetry.Span
}

// startTimeline opens round's timeline at the round's start.
func (p *Platform) startTimeline(round int) timeline {
	now := telemetry.WallClock().Now()
	return timeline{p: p, round: round, start: now, tree: telemetry.Span{
		Name:        "round",
		StartUnixNs: now.UnixNano(),
		Children:    make([]telemetry.Span, 0, numPhases),
	}}
}

// enter starts phase ph and publishes it as the platform's status.
func (t *timeline) enter(ph phase) {
	t.cur, t.mark = ph, telemetry.WallClock().Now()
	t.p.setStatus(t.round, phases[ph].name)
}

// leave ends the running phase.
func (t *timeline) leave() {
	el := telemetry.WallClock().Now().Sub(t.mark)
	name := phases[t.cur].name
	t.p.met.phaseSeconds[t.cur].Observe(el.Seconds())
	t.p.cfg.Events.Debug("round.phase",
		evlog.String("phase", name),
		evlog.Int("round", t.round),
		evlog.Seconds("elapsed_seconds", el))
	t.tree.Children = append(t.tree.Children, telemetry.Span{
		Name:        name,
		StartUnixNs: t.tree.StartUnixNs + t.mark.Sub(t.start).Nanoseconds(),
		DurationNs:  el.Nanoseconds(),
	})
}

// end ends the round and records its tree.
func (t *timeline) end() {
	el := telemetry.WallClock().Now().Sub(t.start)
	t.p.met.roundSeconds.Observe(el.Seconds())
	t.tree.DurationNs = el.Nanoseconds()
	t.p.cfg.Tracer.Record(t.tree)
}

// degradeReason classifies a graceful degradation for the event
// stream.
func degradeReason(err error) string {
	switch {
	case errors.Is(err, ErrNoBids):
		return "no_bids"
	case errors.Is(err, core.ErrInfeasible):
		return "infeasible"
	default:
		return "degraded"
	}
}

// roundPhases runs the four phases of a round — collect-bids, auction,
// labels, aggregate — each timed on tl. tl.round is the campaign-wide
// index that roots this round's mechanism randomness and labels its
// events. The report's Round and Faults are left to the caller.
func (p *Platform) roundPhases(ctx context.Context, ln deadlineListener, tl *timeline) (RoundReport, roundLabels, error) {
	ev := p.cfg.Events
	round := tl.round
	if p.cfg.Accountant != nil {
		// Refuse up front when the budget cannot cover this round: a
		// doomed round must not even collect bids. The actual debit
		// happens later, at the moment the price draw is committed, so
		// rounds that degrade beforehand spend nothing. The round's
		// debit is the parallel composition of the partition epsilons —
		// exactly cfg.Epsilon however many partitions there are.
		if rem := p.cfg.Accountant.Remaining(); rem+1e-12 < p.cfg.Epsilon {
			return RoundReport{}, roundLabels{}, fmt.Errorf("%w: remaining %v cannot cover epsilon %v",
				mechanism.ErrBudgetExhausted, rem, p.cfg.Epsilon)
		}
	}
	// Open the partitions to bids before the window; the deferred close
	// is idempotent and stops admissions on every exit path, including
	// degradations.
	p.coord.BeginRound(round)
	defer p.coord.CloseRound()

	tl.enter(phaseCollectBids)
	sessions, err := p.collectBids(ctx, ln, round)
	tl.leave()
	if err != nil {
		return RoundReport{}, roundLabels{}, err
	}
	defer func() {
		for _, s := range sessions {
			p.endSession(s)
		}
	}()
	// Deterministic order: the auction's worker indices follow sorted
	// IDs, not connection arrival order, so identical surviving bid
	// sets yield byte-identical reports.
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].workerID < sessions[j].workerID })

	switch {
	case len(sessions) == 0:
		return RoundReport{}, roundLabels{}, ErrNoBids
	case len(sessions) < p.cfg.Quorum:
		err := fmt.Errorf("%w: %d of %d required bids", ErrQuorumNotMet, len(sessions), p.cfg.Quorum)
		refuse(sessions, err)
		return RoundReport{}, roundLabels{}, err
	}
	ev.Info("round.bids_collected",
		evlog.Int("round", round),
		evlog.Int("bids", len(sessions)),
		evlog.Int("faults", p.roundFaults().Total()))

	tl.enter(phaseAuction)
	outcome, won, shardOut, err := p.runAuctionPhase(ctx, sessions, round)
	tl.leave()
	if err != nil {
		refuse(sessions, err)
		return RoundReport{Sharding: shardOut}, roundLabels{}, err
	}

	report := RoundReport{
		Bidders:   len(sessions),
		Outcome:   outcome,
		Sharding:  shardOut,
		WorkerIDs: make([]string, len(sessions)),
	}
	for i, s := range sessions {
		report.WorkerIDs[i] = s.workerID
	}

	tl.enter(phaseLabels)

	// Notify losers and release them. The winners are ranked by session
	// index, so one walk beside the sessions skips them.
	next := 0
	for i, s := range sessions {
		if next < len(won) && won[next].session == i {
			next++
			continue
		}
		if err := s.conn.sendFrame(TypeOutcome, p.frames.lost); err != nil {
			p.fault(faultLoserUnnotified, round, evlog.String("worker", s.workerID))
			continue
		}
		_ = s.conn.sendFrame(TypeDone, p.frames.done)
	}

	// Winners: request labels, collect, settle — concurrently, so one
	// stalled winner costs the round a single IO timeout, not a
	// serialized wait per straggler. A winner that cannot be reached
	// or does not deliver within the timeout is evicted; the round
	// completes with whoever answered. Results are assembled in rank
	// order afterwards to keep the report deterministic.
	perWinner := make([][]crowd.Report, len(won))
	paid := make([]bool, len(won))
	var wg sync.WaitGroup
	for r, w := range won {
		wg.Add(1)
		go func(r int, price float64, s *session) {
			defer wg.Done()
			if err := s.conn.Send(Message{Type: TypeOutcome, Won: true, ClearingPrice: price}); err != nil {
				p.fault(faultWinnerUnreachable, round, evlog.String("worker", s.workerID))
				return
			}
			m, err := s.conn.Expect(TypeLabels)
			if err != nil {
				p.fault(faultWinnerEvicted, round, evlog.String("worker", s.workerID))
				return
			}
			// A winner labels the tasks it bid for, once each, +1 or -1:
			// aggregation weighs a label by its value, and truth
			// discovery refuses any other. The rest is dropped. got[k]
			// holds the label admitted for s.bundle[k], Unlabeled until
			// one is.
			got := make([]crowd.Report, len(s.bundle))
			for _, lr := range m.Reports {
				k, in := slices.BinarySearch(s.bundle, lr.Task)
				if in && got[k].Label == crowd.Unlabeled && (lr.Label == 1 || lr.Label == -1) {
					got[k] = crowd.Report{Worker: r, Task: lr.Task, Label: crowd.Label(lr.Label)}
				}
			}
			perWinner[r] = slices.DeleteFunc(got, func(rep crowd.Report) bool { return rep.Label == crowd.Unlabeled })
			// A winner counts as paid once its payment frame is written.
			if err := s.conn.Send(Message{Type: TypePayment, Amount: price}); err != nil {
				p.fault(faultWinnerUnreachable, round, evlog.String("worker", s.workerID))
				return
			}
			paid[r] = true
			_ = s.conn.sendFrame(TypeDone, p.frames.done)
		}(r, w.price, sessions[w.session])
	}
	wg.Wait()
	tl.leave()

	labels := roundLabels{winners: make([]string, len(won))}
	n := 0
	for _, rs := range perWinner {
		n += len(rs)
	}
	labels.reports = make([]crowd.Report, 0, n)
	report.Paid = make([]string, 0, len(won))
	skills := make([][]float64, len(won))
	for r, w := range won {
		id := sessions[w.session].workerID
		labels.winners[r] = id
		labels.reports = append(labels.reports, perWinner[r]...)
		if paid[r] {
			report.Paid = append(report.Paid, id)
			report.DeliveredPayment += w.price
		}
		skills[r] = w.skills
	}
	report.ReportsReceived = len(labels.reports)

	tl.enter(phaseAggregate)
	agg, err := crowd.WeightedAggregate(labels.reports, skills, p.cfg.NumTasks)
	tl.leave()
	if err != nil {
		return RoundReport{}, roundLabels{}, fmt.Errorf("protocol: aggregation: %w", err)
	}
	report.Aggregated = agg
	return report, labels, nil
}

// refuse tells every session why the round failed before its outcome:
// one TypeError frame, encoded once, so Participate returns a permanent
// ErrRemote instead of retrying a cut stream into the next round.
func refuse(sessions []*session, cause error) {
	// A frame of strings always encodes.
	frame, _ := encodeFrame(Message{Type: TypeError, Err: cause.Error()})
	for _, s := range sessions {
		_ = s.conn.sendFrame(TypeError, frame)
	}
}

// roundWinner is one winning session. A round ranks its winners by
// session index, which is worker-ID order, the order the report lists
// them in; the labels phase keeps its per-winner state by rank, so it
// sizes to the winners, not the bidders.
type roundWinner struct {
	session int
	// price is the amount the winner is notified of and paid.
	price float64
	// skills is the winner's row in its partition's instance, which
	// aggregation weighs its labels by.
	skills []float64
}

// runAuctionPhase closes the round to bids and runs the partition
// auctions (see shard.Coordinator.RunRound), which debit the privacy
// accountant exactly once, immediately before the price draws. The
// mechanism randomness is rooted at RoundSeed(cfg.Seed, round), so
// every round draws a distinct stream and a recovered campaign
// re-derives the same stream for the same round index. The result is
// mapped back onto session indices, and the winners are returned by
// rank (see roundWinner):
//
//   - unsharded, the lone partition's draw is the round's Outcome:
//     winners in the auction's selection order, all paid its clearing
//     price, and no Sharding outcome;
//   - sharded, Outcome.Winners are the winning sessions in index order
//     with Price 0, each winner is paid its own partition's clearing
//     price, and the merged outcome is returned for RoundReport.Sharding.
//
// Killed partitions are tolerated faults, recorded like the
// per-session fault classes.
func (p *Platform) runAuctionPhase(ctx context.Context, sessions []*session, round int) (core.Outcome, []roundWinner, *shard.RoundOutcome, error) {
	so, err := p.coord.RunRound(ctx, RoundSeed(p.cfg.Seed, round))
	var merged *shard.RoundOutcome
	if p.coord.Partitions() > 1 {
		merged = &so
	}
	for _, pr := range so.Partitions {
		if pr.Status == shard.StatusKilled {
			p.fault(faultPartitionLost, round, evlog.Int("partition", pr.Partition))
		}
	}
	if err != nil {
		return core.Outcome{}, nil, merged, err
	}

	// Merged winners are sorted by worker ID, like the sessions, so
	// their indices come out ascending — the deterministic order the
	// report contract requires. An unsharded round reports its lone
	// partition's draw instead: its price, its winners in selection
	// order.
	outcome := core.Outcome{Feasible: true, TotalPayment: so.TotalPayment}
	winners := so.Winners
	if merged == nil {
		lone := so.Partitions[0]
		outcome.Price = lone.Price
		winners = make([]shard.Winner, len(lone.Winners))
		for k, id := range lone.Winners {
			winners[k] = shard.Winner{WorkerID: id, Price: lone.Price}
		}
	}
	// Only winners report labels, so only their rows are aggregated:
	// the rows their partition instances already hold.
	won := make([]roundWinner, 0, len(winners))
	for _, w := range winners {
		i := sort.Search(len(sessions), func(i int) bool { return sessions[i].workerID >= w.WorkerID })
		if i == len(sessions) || sessions[i].workerID != w.WorkerID {
			// A winner the session table does not know would be a
			// routing bug; fail loudly rather than mis-pay.
			return core.Outcome{}, nil, merged, fmt.Errorf("protocol: winner %q has no session", w.WorkerID)
		}
		outcome.Winners = append(outcome.Winners, i)
		won = append(won, roundWinner{session: i, price: w.Price, skills: p.coord.SkillRow(w.WorkerID)})
	}
	slices.SortFunc(won, func(a, b roundWinner) int { return a.session - b.session })
	// Like round.complete, a sharded round's draw carries no single
	// price.
	fields := []evlog.Field{evlog.Int("round", round), evlog.Int("winners", len(outcome.Winners))}
	if merged == nil {
		fields = append(fields, evlog.Aggregate("clearing_price", outcome.Price))
	}
	p.cfg.Events.Debug("round.price_drawn", fields...)
	return outcome, won, merged, nil
}

// acquireConn reserves one connection slot, returning false when
// cfg.MaxConns is set and already saturated (the reservation is rolled
// back). The atomic reservation means the cap is never overshot even
// under concurrent accepts.
func (p *Platform) acquireConn() bool {
	n := p.connsActive.Add(1)
	if p.cfg.MaxConns > 0 && n > int64(p.cfg.MaxConns) {
		p.connsActive.Add(-1)
		return false
	}
	p.met.connsActive.Add(1)
	return true
}

// releaseConn returns a connection slot reserved by acquireConn.
func (p *Platform) releaseConn() {
	p.connsActive.Add(-1)
	p.met.connsActive.Add(-1)
}

// endSession closes s's connection after its last read, returns its
// codec and frees its connection slot.
func (p *Platform) endSession(s *session) {
	_ = s.conn.Close()
	s.conn.release()
	p.releaseConn()
}

// collectBids accepts connections and performs the hello/announce/bid
// handshake until the bid window closes, MinWorkers is reached, ctx is
// cancelled or Accept fails. Individual handshake failures are
// tolerated faults of round, never fatal, even those that come after
// the window has closed. Every way out of the accept loop leaves
// through one exit, which waits for every handshake the loop started:
// one that outlived its round could register its bid in the next.
// After an accept error the exit also ends the sessions those
// handshakes registered, and the round fails.
func (p *Platform) collectBids(ctx context.Context, ln deadlineListener, round int) ([]*session, error) {
	windowCtx, cancel := context.WithTimeout(ctx, p.cfg.BidWindow)
	defer cancel()

	var (
		mu       sync.Mutex
		sessions []*session
		wg       sync.WaitGroup
	)
	clear(p.bidders)

	// Unblock Accept when the window ends: SetDeadline applies to an
	// Accept that is already blocked, so setting a deadline in the past
	// makes it return a timeout immediately, with no network traffic.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		<-windowCtx.Done()
		_ = ln.SetDeadline(time.Unix(1, 0))
	}()

	var acceptErr error
	for windowCtx.Err() == nil {
		raw, err := ln.Accept()
		if err != nil {
			if !isTimeout(err) && windowCtx.Err() == nil {
				acceptErr = fmt.Errorf("protocol: accept: %w", err)
				break
			}
			// The end-of-window deadline (or a spurious timeout); the
			// loop condition sorts out which.
			continue
		}
		wg.Add(1)
		if !p.acquireConn() {
			// Connection limit reached: reject without handshaking. The
			// rejection write sits on a network deadline, so it runs off
			// the accept loop like every slow-path interaction.
			go func() {
				defer wg.Done()
				p.fault(faultRejected, round, evlog.String("cause", "over_limit"))
				_ = writeFrame(raw, p.cfg.IOTimeout, TypeError, p.frames.overLimit)
				_ = raw.Close()
			}()
			continue
		}
		go func() {
			defer wg.Done()
			s, err := p.handshake(raw)
			if err != nil {
				_ = raw.Close()
				p.releaseConn()
				kind, cause := faultRejected, "rejected"
				if isTimeout(err) {
					kind, cause = faultTimedOut, "timeout"
				}
				p.fault(kind, round, evlog.String("cause", cause))
				return
			}
			mu.Lock()
			if p.bidders[s.workerID] {
				mu.Unlock()
				// The rejection itself happens outside the critical
				// section: SendError sits on a network write deadline
				// (up to IOTimeout), and mu is what every completing
				// handshake needs to register its bid — one slow
				// duplicate client must not stall the whole window.
				p.fault(faultDuplicate, round, evlog.String("worker", s.workerID))
				_ = s.conn.SendError(fmt.Errorf("%w: %s", ErrDuplicateBid, s.workerID))
				p.endSession(s)
				return
			}
			// The bid is admitted to its partition before the session
			// registers, so a registered session IS an admitted bid —
			// accepted bids are never dropped by backpressure later.
			if serr := p.coord.Submit(shard.Bid{WorkerID: s.workerID, Bundle: s.bundle, Price: s.price}); serr != nil {
				mu.Unlock()
				p.fault(faultRejected, round, evlog.String("cause", "shard_overloaded"), evlog.String("worker", s.workerID))
				_ = s.conn.SendError(fmt.Errorf("%w: %s", shard.ErrOverloaded, s.workerID))
				p.endSession(s)
				return
			}
			p.bidders[s.workerID] = true
			sessions = append(sessions, s)
			quorum := p.cfg.MinWorkers > 0 && len(sessions) >= p.cfg.MinWorkers
			mu.Unlock()
			p.met.bidsAccepted.Inc()
			// The bid value is DP-protected input: it never enters the
			// stream, only a Redacted placeholder marking its arrival.
			p.cfg.Events.Debug("bid.accepted",
				evlog.Int("round", round),
				evlog.String("worker", s.workerID),
				evlog.Redacted("bid"))
			if quorum {
				cancel()
			}
		}()
	}
	// The one exit: close the window, then wait out every handshake
	// and the deadline goroutine.
	cancel()
	wg.Wait()
	<-acceptDone
	if acceptErr != nil {
		for _, s := range sessions {
			p.endSession(s)
		}
		sessions = nil
	}
	return sessions, acceptErr
}

// handshake runs hello -> announce -> bid on a fresh connection. A
// failed handshake releases its Conn; a session's owner releases it
// after the session's last read.
func (p *Platform) handshake(raw net.Conn) (_ *session, err error) {
	conn := NewConn(raw, p.cfg.IOTimeout)
	defer func() {
		if err != nil {
			conn.release()
		}
	}()
	hello, err := conn.Expect(TypeHello)
	if err != nil {
		return nil, err
	}
	if hello.WorkerID == "" {
		return nil, conn.SendError(errors.New("protocol: empty worker id"))
	}
	if len(hello.WorkerID) > MaxWorkerIDBytes {
		return nil, conn.SendError(fmt.Errorf("protocol: worker id of %d bytes exceeds %d", len(hello.WorkerID), MaxWorkerIDBytes))
	}
	if err := conn.sendFrame(TypeAnnounce, p.frames.announce); err != nil {
		return nil, err
	}
	bid, err := conn.Expect(TypeBid)
	if err != nil {
		return nil, err
	}
	// The bid is checked here with the auction core's own check, so one
	// malformed bid costs its own session, not the assembled round.
	terms := core.Instance{NumTasks: p.cfg.NumTasks, CMin: p.cfg.CMin, CMax: p.cfg.CMax}
	if err := terms.ValidateBid(core.Worker{Bundle: bid.Bundle, Bid: bid.Price}); err != nil {
		return nil, conn.SendError(fmt.Errorf("protocol: invalid bid from %s: %w", hello.WorkerID, err))
	}
	return &session{
		conn:     conn,
		workerID: hello.WorkerID,
		bundle:   bid.Bundle,
		price:    bid.Price,
	}, nil
}
