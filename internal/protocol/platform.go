package protocol

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// SkillFunc supplies the platform's historical skill estimate for a
// worker (Section III-A: theta is maintained by the platform from
// prior rounds, gold tasks, or truth discovery — see crowd.EstimateSkills).
type SkillFunc func(workerID string, numTasks int) []float64

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
	// lifecycle, per-phase completions carrying the round's span IDs
	// (log<->trace correlation), tolerated faults, and bid handshake
	// outcomes. evlog is the protocol's only sanctioned logging sink
	// (mcs-lint MCS-DPL003); bid values never enter the stream — the
	// field API admits them only through Redacted/Aggregate wrappers.
	// Nil disables event logging at zero cost.
	Events *evlog.Logger
	// Telemetry, when non-nil, receives the platform's metric families
	// (mcs_protocol_*) and is threaded into the auction core and the
	// privacy accountant. Nil disables all recording at zero cost.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span tree per round
	// (round -> collect-bids / auction / labels / aggregate).
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

// validate checks the configuration.
func (c *PlatformConfig) validate() error {
	switch {
	case c.NumTasks <= 0:
		return fmt.Errorf("%w: NumTasks=%d", ErrBadPlatform, c.NumTasks)
	case len(c.Thresholds) != c.NumTasks:
		return fmt.Errorf("%w: %d thresholds for %d tasks", ErrBadPlatform, len(c.Thresholds), c.NumTasks)
	case c.Skills == nil:
		return fmt.Errorf("%w: nil SkillFunc", ErrBadPlatform)
	case c.Epsilon <= 0:
		return fmt.Errorf("%w: epsilon=%v", ErrBadPlatform, c.Epsilon)
	case len(c.PriceGrid) == 0:
		return fmt.Errorf("%w: empty price grid", ErrBadPlatform)
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
	// WinnersUnreachable counts winners that could not be notified of
	// the outcome; they are treated as evicted.
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
	// ReportsReceived counts label reports collected from winners.
	ReportsReceived int
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
	// announce carries the tasks and auction parameters of every
	// handshake.
	announce []byte
	// lost is a loser's outcome.
	lost []byte
	// done closes every settled conversation.
	done []byte
	// overLimit turns away a connection over MaxConns.
	overLimit []byte
}

// newPlatformFrames encodes cfg's constant frames. An announce that
// cannot be encoded (a NaN or infinite threshold or grid price) or
// that exceeds the frame cap is a configuration error: it would fail
// every handshake.
func newPlatformFrames(cfg *PlatformConfig) (platformFrames, error) {
	announce, err := encodeFrame(Message{
		Type:            TypeAnnounce,
		NumTasks:        cfg.NumTasks,
		Thresholds:      cfg.Thresholds,
		Epsilon:         cfg.Epsilon,
		CMin:            cfg.CMin,
		CMax:            cfg.CMax,
		PriceGrid:       cfg.PriceGrid,
		BidWindowMillis: cfg.BidWindow.Milliseconds(),
	})
	if err != nil {
		return platformFrames{}, fmt.Errorf("%w: %v", ErrBadPlatform, err)
	}
	if len(announce) > maxFrameBytes {
		return platformFrames{}, fmt.Errorf("%w: announce of %d bytes exceeds the %d-byte frame cap",
			ErrBadPlatform, len(announce), maxFrameBytes)
	}
	// No other frame carries a configured value, so none can fail.
	lost, _ := encodeFrame(Message{Type: TypeOutcome})
	done, _ := encodeFrame(Message{Type: TypeDone})
	overLimit, _ := encodeFrame(Message{Type: TypeError, Err: ErrTooManyConnections.Error()})
	return platformFrames{announce: announce, lost: lost, done: done, overLimit: overLimit}, nil
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

// NewPlatform validates the configuration and returns a Platform.
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
	frames, err := newPlatformFrames(&cfg)
	if err != nil {
		return nil, err
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
		Skills:              shard.SkillFunc(cfg.Skills),
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
		frames:    frames,
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

// runRoundCollecting is RunRound plus the raw label reports, which the
// multi-round campaign feeds to truth discovery. It wraps roundPhases
// with the round-level telemetry: one span tree, the end-to-end
// latency, and the final outcome tally.
func (p *Platform) runRoundCollecting(ctx context.Context, ln net.Listener) (RoundReport, []crowd.Report, error) {
	dl, ok := ln.(deadlineListener)
	if !ok {
		return RoundReport{}, nil, fmt.Errorf("%w: listener %T has no SetDeadline to close the bid window", ErrBadPlatform, ln)
	}
	// Clear the past deadline a previous round's close left set.
	if err := dl.SetDeadline(time.Time{}); err != nil {
		return RoundReport{}, nil, fmt.Errorf("%w: clearing the accept deadline: %v", ErrBadPlatform, err)
	}
	reg := p.cfg.Telemetry
	ev := p.cfg.Events
	round := p.claimRound()
	if p.cfg.Checkpoints != nil {
		// The begin checkpoint is write-ahead: a round whose attempt is
		// not durable must not run, or a crash could re-run (and re-pay)
		// it on resume.
		if err := p.cfg.Checkpoints.RecordRoundBegin(round); err != nil {
			return RoundReport{Round: round}, nil, fmt.Errorf("protocol: checkpointing round %d begin: %w", round, err)
		}
	}
	start := reg.Now()
	defer p.setStatus(round, PhaseIdle)
	root := p.cfg.Tracer.StartSpan("round")
	ev.Info("round.start", evlog.Int64("span", root.ID()), evlog.Int("round", round))
	rep, reports, err := p.roundPhases(ctx, dl, round, root)
	rep.Round = round
	root.End()
	p.met.roundSeconds.Observe(reg.Since(start))
	switch {
	case err == nil:
		if p.cfg.Checkpoints != nil {
			// Journal the completion with the paid winners before the
			// report is released: if this write fails, the round stays
			// "begun" in the journal and resume skips it — which is the
			// safe reading, since its payments have already gone out.
			paid := make([]string, 0, len(rep.Outcome.Winners))
			for _, w := range rep.Outcome.Winners {
				if w >= 0 && w < len(rep.WorkerIDs) {
					paid = append(paid, rep.WorkerIDs[w])
				}
			}
			if cerr := p.cfg.Checkpoints.RecordRoundComplete(round, rep.Outcome.TotalPayment, paid); cerr != nil {
				p.met.roundsFailed.Inc()
				ev.Error("round.failed", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "checkpoint"))
				return rep, reports, fmt.Errorf("protocol: checkpointing round %d completion: %w", round, cerr)
			}
		}
		p.met.roundsCompleted.Inc()
		// The clearing price is the mechanism's DP output — the one
		// sanctioned release — so it rides in an Aggregate wrapper.
		ev.Info("round.complete",
			evlog.Int64("span", root.ID()),
			evlog.Int("round", round),
			evlog.Int("bidders", rep.Bidders),
			evlog.Int("winners", len(rep.Outcome.Winners)),
			evlog.Aggregate("clearing_price", rep.Outcome.Price),
			evlog.Int("reports_received", rep.ReportsReceived),
			evlog.Int("faults", rep.Faults.Total()))
	case errors.Is(err, ErrQuorumNotMet):
		p.met.quorumFailures.Inc()
		p.met.roundsDegraded.Inc()
		ev.Warn("round.degraded", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "quorum_not_met"))
	case IsDegraded(err):
		p.met.roundsDegraded.Inc()
		ev.Warn("round.degraded", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", degradeReason(err)))
	case errors.Is(err, mechanism.ErrBudgetExhausted):
		p.met.budgetRefusals.Inc()
		p.met.roundsFailed.Inc()
		ev.Error("round.failed", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "budget_exhausted"))
	default:
		p.met.roundsFailed.Inc()
		ev.Error("round.failed", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "error"))
	}
	return rep, reports, err
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
// labels, aggregate — each timed into mcs_protocol_phase_seconds and
// traced as a child of root. round is the campaign-wide index that
// roots this round's mechanism randomness.
func (p *Platform) roundPhases(ctx context.Context, ln deadlineListener, round int, root *telemetry.Span) (RoundReport, []crowd.Report, error) {
	reg := p.cfg.Telemetry
	ev := p.cfg.Events
	// Phase boundaries come from the registry's clock, or the event
	// logger's when no registry is attached, so a round.phase event
	// never reads a nil registry's zero as a duration.
	now := reg.Now
	if reg == nil {
		now = ev.Now
	}
	// phaseDone times a phase into the histogram and mirrors it as a
	// round.phase event carrying the phase's span ID and the round's
	// root span ID, so a log line can be joined to the trace tree.
	phaseDone := func(name string, span *telemetry.Span, h *telemetry.Histogram, start time.Time) {
		span.End()
		el := now().Sub(start).Seconds()
		h.Observe(el)
		ev.Debug("round.phase",
			evlog.String("phase", name),
			evlog.Int64("span", span.ID()),
			evlog.Int64("parent", root.ID()),
			evlog.Float("elapsed_seconds", el))
	}
	if p.cfg.Accountant != nil {
		// Refuse up front when the budget cannot cover this round: a
		// doomed round must not even collect bids. The actual debit
		// happens later, at the moment the price draw is committed, so
		// rounds that degrade beforehand spend nothing. The round's
		// debit is the parallel composition of the partition epsilons —
		// exactly cfg.Epsilon however many partitions there are.
		if rem := p.cfg.Accountant.Remaining(); rem+1e-12 < p.cfg.Epsilon {
			return RoundReport{}, nil, fmt.Errorf("%w: remaining %v cannot cover epsilon %v",
				mechanism.ErrBudgetExhausted, rem, p.cfg.Epsilon)
		}
	}
	// Open the partitions to bids before the window; the deferred close
	// is idempotent and stops admissions on every exit path, including
	// degradations.
	p.coord.BeginRound(round)
	defer p.coord.CloseRound()

	p.setStatus(round, PhaseCollectBids)
	collectStart := now()
	collectSpan := root.StartChild("collect-bids")
	sessions, faults, err := p.collectBids(ctx, ln, collectSpan.ID())
	phaseDone("collect-bids", collectSpan, p.met.phaseCollect, collectStart)
	if err != nil {
		return RoundReport{}, nil, err
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
		return RoundReport{Faults: faults}, nil, ErrNoBids
	case len(sessions) < p.cfg.Quorum:
		err := fmt.Errorf("%w: %d of %d required bids", ErrQuorumNotMet, len(sessions), p.cfg.Quorum)
		refuse(sessions, err)
		return RoundReport{Faults: faults}, nil, err
	}
	ev.Info("round.bids_collected",
		evlog.Int64("span", collectSpan.ID()),
		evlog.Int("bids", len(sessions)),
		evlog.Int("faults", faults.Total()))

	p.setStatus(round, PhaseAuction)
	auctionStart := now()
	auctionSpan := root.StartChild("auction")
	outcome, skills, winnerPrices, shardOut, err := p.runAuctionPhase(ctx, sessions, round, auctionSpan.ID(), &faults)
	phaseDone("auction", auctionSpan, p.met.phaseAuction, auctionStart)
	if err != nil {
		refuse(sessions, err)
		return RoundReport{Faults: faults, Sharding: shardOut}, nil, err
	}

	report := RoundReport{
		Bidders:  len(sessions),
		Outcome:  outcome,
		Sharding: shardOut,
	}
	for _, s := range sessions {
		report.WorkerIDs = append(report.WorkerIDs, s.workerID)
	}

	winners := make(map[int]bool, len(outcome.Winners))
	for _, w := range outcome.Winners {
		winners[w] = true
	}

	p.setStatus(round, PhaseLabels)
	labelsStart := now()
	labelsSpan := root.StartChild("labels")

	// Notify losers and release them.
	for i, s := range sessions {
		if winners[i] {
			continue
		}
		if err := s.conn.sendFrame(TypeOutcome, p.frames.lost); err != nil {
			faults.LosersUnnotified++
			p.met.faultLoserUnnotified.Inc()
			ev.Warn("round.fault",
				evlog.String("kind", "loser_unnotified"),
				evlog.Int64("span", labelsSpan.ID()),
				evlog.String("worker", s.workerID))
			continue
		}
		_ = s.conn.sendFrame(TypeDone, p.frames.done)
	}

	// Winners: request labels, collect, settle — concurrently, so one
	// stalled winner costs the round a single IO timeout, not a
	// serialized wait per straggler. A winner that cannot be reached
	// or does not deliver within the timeout is evicted; the round
	// completes with whoever answered. Results are assembled in
	// session-index order afterwards to keep the report deterministic.
	perWinner := make([][]crowd.Report, len(sessions))
	var (
		wg  sync.WaitGroup
		fmu sync.Mutex
	)
	for i := range sessions {
		if !winners[i] {
			continue
		}
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			if err := s.conn.Send(Message{Type: TypeOutcome, Won: true, ClearingPrice: winnerPrices[i]}); err != nil {
				fmu.Lock()
				faults.WinnersUnreachable++
				fmu.Unlock()
				p.met.faultWinnerUnreachable.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "winner_unreachable"),
					evlog.Int64("span", labelsSpan.ID()),
					evlog.String("worker", s.workerID))
				return
			}
			m, err := s.conn.Expect(TypeLabels)
			if err != nil {
				fmu.Lock()
				faults.WinnersEvicted++
				fmu.Unlock()
				p.met.faultWinnerEvicted.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "winner_evicted"),
					evlog.Int64("span", labelsSpan.ID()),
					evlog.String("worker", s.workerID))
				return
			}
			var got []crowd.Report
			for _, lr := range m.Reports {
				if lr.Task < 0 || lr.Task >= p.cfg.NumTasks {
					continue
				}
				got = append(got, crowd.Report{Worker: i, Task: lr.Task, Label: crowd.Label(lr.Label)})
			}
			perWinner[i] = got
			_ = s.conn.Send(Message{Type: TypePayment, Amount: winnerPrices[i]})
			_ = s.conn.sendFrame(TypeDone, p.frames.done)
		}(i, sessions[i])
	}
	wg.Wait()
	phaseDone("labels", labelsSpan, p.met.phaseLabels, labelsStart)

	var reports []crowd.Report
	for _, rs := range perWinner {
		reports = append(reports, rs...)
	}
	report.ReportsReceived = len(reports)
	report.Faults = faults

	p.setStatus(round, PhaseAggregate)
	aggStart := now()
	aggSpan := root.StartChild("aggregate")
	agg, err := crowd.WeightedAggregate(reports, skills, p.cfg.NumTasks)
	phaseDone("aggregate", aggSpan, p.met.phaseAggregate, aggStart)
	if err != nil {
		return RoundReport{Faults: faults}, nil, fmt.Errorf("protocol: aggregation: %w", err)
	}
	report.Aggregated = agg
	return report, reports, nil
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

// runAuctionPhase closes the round to bids and runs the partition
// auctions (see shard.Coordinator.RunRound), which debit the privacy
// accountant exactly once, immediately before the price draws. The
// mechanism randomness is rooted at RoundSeed(cfg.Seed, round), so
// every round draws a distinct stream and a recovered campaign
// re-derives the same stream for the same round index. The result is
// mapped back onto session indices, with winnerPrices carrying the
// amount each winner is notified of and paid and skills the
// aggregation row of each winner:
//
//   - unsharded, the lone partition's draw is the round's Outcome:
//     winners in the auction's selection order, all paid its clearing
//     price, and no Sharding outcome;
//   - sharded, Outcome.Winners are the winning sessions in index order
//     with Price 0, each winner is paid its own partition's clearing
//     price, and the merged outcome is returned for RoundReport.Sharding.
//
// Killed partitions are tolerated faults, accounted under
// RoundFaults.PartitionsLost with one round.fault event each, exactly
// like the per-session fault classes. spanID labels the phase's events
// for log<->trace correlation.
func (p *Platform) runAuctionPhase(ctx context.Context, sessions []*session, round int, spanID int64, faults *RoundFaults) (core.Outcome, [][]float64, []float64, *shard.RoundOutcome, error) {
	ev := p.cfg.Events
	so, err := p.coord.RunRound(ctx, RoundSeed(p.cfg.Seed, round))
	var merged *shard.RoundOutcome
	if p.coord.Partitions() > 1 {
		merged = &so
	}
	for _, pr := range so.Partitions {
		if pr.Status != shard.StatusKilled {
			continue
		}
		faults.PartitionsLost++
		p.met.faultPartitionLost.Inc()
		ev.Warn("round.fault",
			evlog.String("kind", "partition_lost"),
			evlog.Int64("span", spanID),
			evlog.Int("partition", pr.Partition))
	}
	if err != nil {
		return core.Outcome{}, nil, nil, merged, err
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
	winnerPrices := make([]float64, len(sessions))
	// Only winners report labels, so only their rows are aggregated:
	// the rows their partition instances already hold.
	skills := make([][]float64, len(sessions))
	for _, w := range winners {
		i := sort.Search(len(sessions), func(i int) bool { return sessions[i].workerID >= w.WorkerID })
		if i == len(sessions) || sessions[i].workerID != w.WorkerID {
			// A winner the session table does not know would be a
			// routing bug; fail loudly rather than mis-pay.
			return core.Outcome{}, nil, nil, merged, fmt.Errorf("protocol: winner %q has no session", w.WorkerID)
		}
		outcome.Winners = append(outcome.Winners, i)
		winnerPrices[i] = w.Price
		skills[i] = p.coord.SkillRow(w.WorkerID)
	}
	// The drawn price is the mechanism's DP-sanctioned release; it still
	// travels wrapped so the stream stays uniformly redaction-typed.
	ev.Debug("round.price_drawn",
		evlog.Int64("span", spanID),
		evlog.Aggregate("clearing_price", outcome.Price),
		evlog.Int("winners", len(outcome.Winners)))
	return outcome, skills, winnerPrices, merged, nil
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
// handshake until the bid window closes, MinWorkers is reached, or ctx
// is cancelled. Individual handshake failures are tolerated and
// tallied, never fatal. spanID labels the phase's events.
func (p *Platform) collectBids(ctx context.Context, ln deadlineListener, spanID int64) ([]*session, RoundFaults, error) {
	ev := p.cfg.Events
	windowCtx, cancel := context.WithTimeout(ctx, p.cfg.BidWindow)
	defer cancel()

	var (
		mu       sync.Mutex
		sessions []*session
		faults   RoundFaults
		seen     = make(map[string]bool)
		wg       sync.WaitGroup
	)

	// Unblock Accept when the window ends: SetDeadline applies to an
	// Accept that is already blocked, so setting a deadline in the past
	// makes it return a timeout immediately, with no network traffic.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		<-windowCtx.Done()
		_ = ln.SetDeadline(time.Unix(1, 0))
	}()

	for {
		select {
		case <-windowCtx.Done():
			wg.Wait()
			<-acceptDone
			return sessions, faults, nil
		default:
		}
		raw, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// The end-of-window deadline (or a spurious timeout);
				// the top-of-loop select sorts out which.
				continue
			}
			select {
			case <-windowCtx.Done():
				wg.Wait()
				<-acceptDone
				return sessions, faults, nil
			default:
			}
			return nil, faults, fmt.Errorf("protocol: accept: %w", err)
		}
		if !p.acquireConn() {
			// Connection limit reached: reject without handshaking. The
			// rejection write sits on a network deadline, so it runs off
			// the accept loop like every slow-path interaction.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if windowCtx.Err() == nil {
					mu.Lock()
					faults.HandshakesFailed++
					mu.Unlock()
					p.met.bidsRejected.Inc()
					ev.Warn("round.fault",
						evlog.String("kind", "handshake_failed"),
						evlog.Int64("span", spanID),
						evlog.String("cause", "over_limit"))
				}
				_ = writeFrame(raw, p.cfg.IOTimeout, TypeError, p.frames.overLimit)
				_ = raw.Close()
			}()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := p.handshake(raw)
			if err != nil {
				_ = raw.Close()
				p.releaseConn()
				// Failures after the window closed are not faults: they
				// are sessions the close itself cut.
				if windowCtx.Err() == nil {
					mu.Lock()
					faults.HandshakesFailed++
					mu.Unlock()
					cause := "rejected"
					if isTimeout(err) {
						cause = "timeout"
						p.met.bidsTimedOut.Inc()
					} else {
						p.met.bidsRejected.Inc()
					}
					ev.Warn("round.fault",
						evlog.String("kind", "handshake_failed"),
						evlog.Int64("span", spanID),
						evlog.String("cause", cause))
				}
				return
			}
			mu.Lock()
			if seen[s.workerID] {
				faults.DuplicatesRejected++
				mu.Unlock()
				// The rejection itself happens outside the critical
				// section: SendError sits on a network write deadline
				// (up to IOTimeout), and mu is what every completing
				// handshake needs to register its bid — one slow
				// duplicate client must not stall the whole window.
				p.met.bidsDuplicate.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "duplicate_bid"),
					evlog.Int64("span", spanID),
					evlog.String("worker", s.workerID))
				_ = s.conn.SendError(fmt.Errorf("%w: %s", ErrDuplicateBid, s.workerID))
				p.endSession(s)
				return
			}
			// The bid is admitted to its partition before the session
			// registers, so a registered session IS an admitted bid —
			// accepted bids are never dropped by backpressure later.
			if serr := p.coord.Submit(shard.Bid{WorkerID: s.workerID, Bundle: s.bundle, Price: s.price}); serr != nil {
				faults.HandshakesFailed++
				mu.Unlock()
				p.met.bidsRejected.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "handshake_failed"),
					evlog.Int64("span", spanID),
					evlog.String("cause", "shard_overloaded"),
					evlog.String("worker", s.workerID))
				_ = s.conn.SendError(fmt.Errorf("%w: %s", shard.ErrOverloaded, s.workerID))
				p.endSession(s)
				return
			}
			seen[s.workerID] = true
			sessions = append(sessions, s)
			quorum := p.cfg.MinWorkers > 0 && len(sessions) >= p.cfg.MinWorkers
			mu.Unlock()
			p.met.bidsAccepted.Inc()
			// The bid value is DP-protected input: it never enters the
			// stream, only a Redacted placeholder marking its arrival.
			ev.Debug("bid.accepted",
				evlog.Int64("span", spanID),
				evlog.String("worker", s.workerID),
				evlog.Redacted("bid"))
			if quorum {
				cancel()
			}
		}()
	}
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
	// The bid is checked here as the auction core would check it, so one
	// malformed bid costs its own session, not the assembled round.
	if err := checkBundle(bid.Bundle, p.cfg.NumTasks); err != nil {
		return nil, conn.SendError(fmt.Errorf("protocol: invalid bid from %s: %v", hello.WorkerID, err))
	}
	if bid.Price < p.cfg.CMin || bid.Price > p.cfg.CMax {
		return nil, conn.SendError(fmt.Errorf("protocol: invalid bid from %s", hello.WorkerID))
	}
	return &session{
		conn:     conn,
		workerID: hello.WorkerID,
		bundle:   bid.Bundle,
		price:    bid.Price,
	}, nil
}
