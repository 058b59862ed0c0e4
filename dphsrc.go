// Package dphsrc is a Go implementation of the DP-hSRC auction from
// "Enabling Privacy-Preserving Incentives for Mobile Crowd Sensing
// Systems" (Jin, Su, Ding, Nahrstedt, Borisov — ICDCS 2016): a
// differentially private, approximately truthful, individually rational
// and computationally efficient reverse combinatorial auction that a
// mobile-crowd-sensing platform uses to buy binary classification
// labels from strategic workers while bounding every task's aggregation
// error and approximately minimizing its total payment.
//
// This root package is the public API; it re-exports the library's
// internal packages:
//
//   - the auction mechanism itself (Instance, Auction, New, Run);
//   - the exact "Optimal" baseline solver used in the paper's
//     evaluation (Optimal);
//   - the crowd-sensing substrate: label simulation, Lemma-1 weighted
//     aggregation, and EM truth discovery (RunCampaign, EstimateSkills);
//   - privacy accounting (MeasureLeakage);
//   - the Table-I workload generators (SettingI..SettingIV);
//   - the experiment harness that regenerates every figure and table of
//     the paper (Figure1..Figure5, Table2);
//   - the TCP platform/worker protocol for running real distributed
//     rounds (NewPlatform, Participate).
//
// Quick start:
//
//	params := dphsrc.SettingI(100)
//	inst, _ := params.Generate(rand.New(rand.NewSource(1)))
//	auction, err := dphsrc.New(inst)
//	if err != nil { ... }
//	outcome := auction.Run(rand.New(rand.NewSource(2)))
//	fmt.Println(outcome.Price, len(outcome.Winners))
package dphsrc

import (
	"github.com/dphsrc/dphsrc/internal/console"
	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/experiment"
	"github.com/dphsrc/dphsrc/internal/faultnet"
	"github.com/dphsrc/dphsrc/internal/geo"
	"github.com/dphsrc/dphsrc/internal/ilp"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/plot"
	"github.com/dphsrc/dphsrc/internal/privacy"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// Auction model (internal/core).
type (
	// Instance is a complete hSRC auction instance: tasks with error
	// thresholds, workers with bundles and bids, the platform's skill
	// matrix, the privacy budget and the candidate price grid.
	Instance = core.Instance
	// Worker is one participant's bid: her bundle and asked price.
	Worker = core.Worker
	// Auction is a fully precomputed DP-hSRC auction; safe for
	// concurrent reads (Run, Support, PMF, Reweight). Rebuild
	// reconstructs it in place for a new instance — bitwise-identical
	// to a fresh New, reusing the build's scratch memory — and must
	// not race with any other method.
	Auction = core.Auction
	// Outcome is one sampled auction result.
	Outcome = core.Outcome
	// PriceInfo describes the mechanism's state at one support price.
	PriceInfo = core.PriceInfo
	// Option configures New.
	Option = core.Option
	// SelectionRule chooses the winner-set computation rule.
	SelectionRule = core.SelectionRule
)

// Selection rules.
const (
	// RuleGreedy is Algorithm 1's marginal-gain greedy (the paper's
	// mechanism; default).
	RuleGreedy = core.RuleGreedy
	// RuleGreedyNaive is the literal per-selection argmax scan.
	RuleGreedyNaive = core.RuleGreedyNaive
	// RuleStatic is the baseline auction of the paper's Section VII-A.
	RuleStatic = core.RuleStatic
)

// New builds a DP-hSRC auction over the instance. See core.New.
func New(inst Instance, opts ...Option) (*Auction, error) { return core.New(inst, opts...) }

// WithRule selects the winner-set computation rule.
func WithRule(r SelectionRule) Option { return core.WithRule(r) }

// WithPriceSet fixes the mechanism's price support explicitly (the
// paper's P input to Algorithm 1); required when comparing adjacent bid
// profiles for privacy analysis.
func WithPriceSet(p []float64) Option { return core.WithPriceSet(p) }

// WithParallelism computes winner sets for distinct candidate counts on
// up to n goroutines; results are identical to the sequential default.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithTelemetry records the auction's construction counters and timings
// into a telemetry registry; nil disables recording at zero cost.
func WithTelemetry(reg *TelemetryRegistry) Option { return core.WithTelemetry(reg) }

// PriceGridRange builds the ascending grid {lo, lo+step, ..., <= hi}.
func PriceGridRange(lo, hi, step float64) []float64 { return core.PriceGridRange(lo, hi, step) }

// Auction construction errors re-exported for errors.Is matching.
var (
	// ErrInfeasible reports that no price in the instance grid admits a
	// winner set satisfying every task's error-bound constraint.
	ErrInfeasible = core.ErrInfeasible
)

// Exact optimal baseline (internal/ilp).
type (
	// OptimalResult is the exact single-price optimum R_OPT for an
	// instance (Equation 6 of the paper).
	OptimalResult = ilp.OptimalResult
	// OptimalOptions bounds the exact solver's effort.
	OptimalOptions = ilp.Options
)

// Optimal computes R_OPT = min_p p*|S_OPT(p)| exactly by
// branch-and-bound (the paper's GUROBI baseline, reimplemented).
func Optimal(inst Instance, opts OptimalOptions) (OptimalResult, error) {
	return ilp.Optimal(inst, opts)
}

// Crowd-sensing substrate (internal/crowd).
type (
	// Label is a binary classification label (+1, -1, or unlabeled).
	Label = crowd.Label
	// Report is one label submitted by one worker for one task.
	Report = crowd.Report
	// CampaignResult is the outcome of a full auction+sensing campaign.
	CampaignResult = crowd.CampaignResult
	// EMResult is the truth-discovery output: estimated worker
	// accuracies and MAP labels.
	EMResult = crowd.EMResult
	// EMOptions configures EstimateSkills.
	EMOptions = crowd.EMOptions
)

// Label values.
const (
	Unlabeled = crowd.Unlabeled
	Positive  = crowd.Positive
	Negative  = crowd.Negative
)

// RunCampaign executes the full MCS workflow on a simulated crowd:
// auction, sensing, Lemma-1 aggregation and settlement.
var RunCampaign = crowd.RunCampaign

// WeightedAggregate aggregates labels with Lemma 1's skill-weighted
// rule.
var WeightedAggregate = crowd.WeightedAggregate

// MajorityVote is the unweighted aggregation baseline.
var MajorityVote = crowd.MajorityVote

// EstimateSkills runs one-coin Dawid-Skene EM truth discovery to
// recover worker accuracies without ground truth.
var EstimateSkills = crowd.EstimateSkills

// EstimateSkillsTwoCoin runs full Dawid-Skene EM with separate
// per-worker sensitivity and specificity, for biased workers.
var EstimateSkillsTwoCoin = crowd.EstimateSkillsTwoCoin

// TwoCoinResult is the two-coin truth-discovery output.
type TwoCoinResult = crowd.TwoCoinResult

// SkillMatrix expands per-worker accuracies to the theta matrix the
// auction consumes.
var SkillMatrix = crowd.SkillMatrix

// EmpiricalTaskError Monte-Carlo-verifies Lemma 1's per-task error
// bound for a winner set.
var EmpiricalTaskError = crowd.EmpiricalTaskError

// TrueLabels draws a uniformly random ground-truth label vector.
var TrueLabels = crowd.TrueLabels

// Collect simulates the sensing phase for a set of workers.
var Collect = crowd.Collect

// ErrorRate is the fraction of tasks labeled incorrectly.
var ErrorRate = crowd.ErrorRate

// Privacy accounting (internal/mechanism).
type (
	// Leakage quantifies distinguishability of two mechanism outputs
	// (Definition 8: KL divergence, plus max-log-ratio and TV).
	Leakage = mechanism.Leakage
	// ExponentialMechanism is the log-space exponential mechanism over
	// a finite support.
	ExponentialMechanism = mechanism.Exponential
)

// MeasureLeakage compares the exact output distributions of two
// auctions built from adjacent bid profiles (same price support).
var MeasureLeakage = mechanism.MeasureLeakage

// Adversary model (internal/privacy): the honest-but-curious worker of
// the paper's threat model, as an analyzable attacker.
type (
	// Distinguisher is the Bayes-optimal attacker deciding between two
	// hypotheses about a victim's bid from observed auction outcomes.
	Distinguisher = privacy.Distinguisher
	// LeakagePoint is one epsilon of a payment-privacy sweep.
	LeakagePoint = privacy.LeakagePoint
)

// EpsilonSweep traces the payment-privacy trade-off between two
// auctions built from adjacent bid profiles over the same fixed price
// support; each point derives from the precomputed auctions by
// Auction.Reweight, so winner sets are constructed once per profile.
var EpsilonSweep = privacy.EpsilonSweep

// NewDistinguisher builds the attacker from the two hypothesis PMFs
// (e.g. Auction.PMF() of two adjacent instances over a shared support).
var NewDistinguisher = privacy.NewDistinguisher

// AdvantageBound is the cap epsilon-DP places on any single-observation
// attacker's advantage over random guessing.
var AdvantageBound = privacy.AdvantageBound

// ComposedEpsilon is the basic sequential-composition budget k*eps for
// k repeated auction rounds on the same bids.
var ComposedEpsilon = privacy.ComposedEpsilon

// RoundsToDistinguish is the number of repeated observations after
// which the composed DP bound first permits the target advantage.
var RoundsToDistinguish = privacy.RoundsToDistinguish

// ParallelComposedEpsilon is the parallel-composition budget over
// mechanisms run on disjoint worker populations (the max of their
// epsilons); it is what a sharded round debits once for all its
// partitions.
var ParallelComposedEpsilon = privacy.ParallelComposedEpsilon

// Workloads (internal/workload).
type (
	// WorkloadParams describes one simulated instance family (a row of
	// the paper's Table I).
	WorkloadParams = workload.Params
)

// Table I settings.
var (
	// SettingI is Table I row I: K=30, N in [80,140].
	SettingI = workload.SettingI
	// SettingII is Table I row II: N=120, K in [20,50].
	SettingII = workload.SettingII
	// SettingIII is Table I row III: K=200, N in [800,1400].
	SettingIII = workload.SettingIII
	// SettingIV is Table I row IV: N=1000, K in [200,500].
	SettingIV = workload.SettingIV
)

// ArrivalCurve names a synthetic worker arrival shape over a bid
// window (uniform, burst, ramp, poisson); used by mcs-loadgen.
type ArrivalCurve = workload.ArrivalCurve

// Supported arrival curves.
const (
	ArrivalUniform = workload.ArrivalUniform
	ArrivalBurst   = workload.ArrivalBurst
	ArrivalRamp    = workload.ArrivalRamp
	ArrivalPoisson = workload.ArrivalPoisson
)

// Arrivals draws sorted worker arrival offsets within a bid window,
// shaped by the named curve.
var Arrivals = workload.Arrivals

// Experiments (internal/experiment).
type (
	// ExperimentConfig controls the figure/table runners.
	ExperimentConfig = experiment.Config
	// FigureResult is the data behind one reproduced figure.
	FigureResult = experiment.FigureResult
	// Figure5Result carries Figure 5's payment and leakage curves.
	Figure5Result = experiment.Figure5Result
	// Table2Result carries Table II's timing rows.
	Table2Result = experiment.Table2Result
)

// Figure and table runners (one per paper exhibit).
var (
	Figure1 = experiment.Figure1
	Figure2 = experiment.Figure2
	Figure3 = experiment.Figure3
	Figure4 = experiment.Figure4
	Figure5 = experiment.Figure5
	Table2  = experiment.Table2
	// WriteFigure, WriteTable2 and WriteFigure5 persist results as
	// SVG/CSV/text under a directory.
	WriteFigure  = experiment.WriteFigure
	WriteTable2  = experiment.WriteTable2
	WriteFigure5 = experiment.WriteFigure5
)

// Plotting (internal/plot).
type (
	// Chart is a line chart renderable as SVG or ASCII.
	Chart = plot.Chart
	// Series is one named line with optional error bars.
	Series = plot.Series
	// TextTable is a rectangular text table with CSV export.
	TextTable = plot.Table
)

// Distributed protocol (internal/protocol).
type (
	// Platform runs DP-hSRC auction rounds over TCP.
	Platform = protocol.Platform
	// PlatformConfig parameterizes one auction round.
	PlatformConfig = protocol.PlatformConfig
	// RoundReport summarizes one completed round.
	RoundReport = protocol.RoundReport
	// WorkerConfig describes one participating worker client.
	WorkerConfig = protocol.WorkerConfig
	// WorkerReport is the client-side record of one round.
	WorkerReport = protocol.WorkerReport
	// SkillFunc supplies the platform's skill estimate for a worker.
	SkillFunc = protocol.SkillFunc
	// LabelFunc produces a worker's sensed label for a task.
	LabelFunc = protocol.LabelFunc
	// RoundFaults tallies the transport failures a round absorbed.
	RoundFaults = protocol.RoundFaults
	// RetryPolicy shapes a worker's exponential-backoff retry loop.
	RetryPolicy = protocol.RetryPolicy
	// ContextDialer is the injectable connection factory the worker
	// client dials through (net.Dialer satisfies it).
	ContextDialer = protocol.ContextDialer
)

// ErrQuorumNotMet reports a round that closed its bid window with
// fewer than PlatformConfig.Quorum valid bids.
var ErrQuorumNotMet = protocol.ErrQuorumNotMet

// Worker-side participation errors.
var (
	// ErrRejected reports a bid the platform turned away typed.
	ErrRejected = protocol.ErrRejected
	// ErrRemote wraps an error frame received from the peer.
	ErrRemote = protocol.ErrRemote
)

// IsDegraded reports whether a round error is an expected degradation
// (no bids, quorum not met, infeasible surviving bid set) rather than a
// hard failure; degraded rounds spend no privacy budget.
var IsDegraded = protocol.IsDegraded

// Deterministic fault injection (internal/faultnet) for chaos-testing
// the distributed protocol.
type (
	// FaultPlan is a seeded schedule of frame faults (drop, delay,
	// duplicate, truncate, corrupt).
	FaultPlan = faultnet.Plan
	// FaultInjector wraps net.Conns so their writes suffer the plan's
	// faults deterministically per connection key.
	FaultInjector = faultnet.Injector
	// FaultDialer is a ContextDialer that injects faults into every
	// connection it opens, keying each dial attempt separately.
	FaultDialer = faultnet.Dialer
	// PartitionPlan is a deterministic schedule of shard kills for
	// chaos-testing sharded rounds (plugs into ShardChaos).
	PartitionPlan = faultnet.PartitionPlan
)

// NewFaultInjector validates a fault plan and returns an injector.
var NewFaultInjector = faultnet.New

// Sharded auction service (internal/shard): the scale-out layer that
// partitions a round across independent auction partitions.
type (
	// ShardCoordinator routes bids to partitions and merges their
	// auctions at round close; NewPlatform builds one for every
	// platform, with PlatformConfig.Shards partitions (one when
	// unsharded).
	ShardCoordinator = shard.Coordinator
	// ShardConfig parameterizes a coordinator directly (for embedders
	// that bypass the platform).
	ShardConfig = shard.Config
	// ShardRoundOutcome is the deterministic merge of one sharded
	// round, attached to RoundReport.Sharding.
	ShardRoundOutcome = shard.RoundOutcome
	// ShardPartitionReport summarizes one partition's share of a round.
	ShardPartitionReport = shard.PartitionReport
)

// NewShardCoordinator validates a shard configuration and returns a
// coordinator.
var NewShardCoordinator = shard.NewCoordinator

// ShardFor returns the partition a worker ID consistently hashes to.
var ShardFor = shard.PartitionFor

// Shard-layer errors.
var (
	// ErrShardOverloaded is the backpressure rejection a worker sees
	// when its partition's per-round admission cap is reached.
	ErrShardOverloaded = shard.ErrOverloaded
	// ErrTooManyConnections reports a connection rejected by the
	// platform's MaxConns limit.
	ErrTooManyConnections = protocol.ErrTooManyConnections
)

// NewPlatform validates the configuration and returns a Platform.
var NewPlatform = protocol.NewPlatform

// Participate connects a worker client to a platform round.
var Participate = protocol.Participate

// SkillStore is the platform's learning skill record, updated by truth
// discovery after every round (see Platform.RunCampaign).
type SkillStore = protocol.SkillStore

// CampaignReport aggregates a multi-round campaign.
type ProtocolCampaignReport = protocol.CampaignReport

// NewSkillStore returns a store assuming the given prior accuracy for
// unknown workers.
var NewSkillStore = protocol.NewSkillStore

// NewSkillStoreFromState rebuilds a skill store from accuracies
// recovered out of a state directory.
var NewSkillStoreFromState = protocol.NewSkillStoreFromState

// RoundSeed derives the mechanism seed for one campaign round from the
// platform's base seed; a recovered campaign resuming at round k draws
// exactly the randomness the unbroken run would have.
var RoundSeed = protocol.RoundSeed

// VerifyOutcome checks an auction outcome against its instance
// (coverage, individual rationality, payment consistency).
var VerifyOutcome = core.VerifyOutcome

// EncodeInstance writes a validated instance as JSON (the format
// cmd/dphsrc reads with -instance).
var EncodeInstance = core.EncodeInstance

// DecodeInstance reads and validates a JSON instance.
var DecodeInstance = core.DecodeInstance

// Reproducible randomness (internal/stats).
type (
	// Seeder derives independent child seeds from a root seed.
	Seeder = stats.Seeder
)

// NewSeeder returns a Seeder rooted at the given seed.
var NewSeeder = stats.NewSeeder

// Quantile returns the q-th quantile (0 <= q <= 1) of a sample using
// linear interpolation; mcs-loadgen computes its latency percentiles
// with it.
var Quantile = stats.Quantile

// Geospatial workloads (internal/geo): the paper's motivating
// geotagging scenario with spatially correlated bundles.
type (
	// RoadNetwork is a grid road network whose segments are tasks.
	RoadNetwork = geo.RoadNetwork
	// Commute is a worker's route (her bidding bundle).
	Commute = geo.Commute
	// GeoWorkloadParams configures road-network instance generation.
	GeoWorkloadParams = geo.WorkloadParams
)

// NewRoadNetwork builds a grid road network of the given dimensions.
var NewRoadNetwork = geo.NewRoadNetwork

// CoverageHeat counts how many bundles include each segment.
var CoverageHeat = geo.CoverageHeat

// Privacy budget accounting (internal/mechanism).
type (
	// Accountant meters cumulative privacy loss across repeated
	// auction rounds under basic sequential composition.
	Accountant = mechanism.Accountant
)

// NewAccountant returns an accountant with the given total epsilon
// budget.
var NewAccountant = mechanism.NewAccountant

// RestoreAccountant rebuilds an accountant from persisted budget state
// recovered by a StateStore, preserving the exact cumulative spend.
var RestoreAccountant = mechanism.RestoreAccountant

// ErrBudgetExhausted reports a refused release after the privacy budget
// is spent.
var ErrBudgetExhausted = mechanism.ErrBudgetExhausted

// Durable state (internal/store): the WAL + snapshot persistence layer
// behind -state-dir. All journal writes are synced CRC-framed records;
// recovery replays WAL-over-snapshot and reproduces the accountant's
// cumulative floats bit-for-bit.
type (
	// StateStore is the file-backed store: every record is journaled
	// durably before it takes effect, with periodic atomic snapshots.
	StateStore = store.FileStore
	// StateStoreOption configures OpenStateStore.
	StateStoreOption = store.FileOption
	// PersistedState is everything recovered from a state directory.
	PersistedState = store.State
	// PersistedBudget is the accountant's recovered ledger core.
	PersistedBudget = store.BudgetState
	// PersistedCampaign tracks campaign progress across restarts.
	PersistedCampaign = store.CampaignState
	// PersistedRound is one completed round as journaled.
	PersistedRound = store.CompletedRound
	// BudgetJournal is the narrow interface the accountant journals
	// spends and refusals through.
	BudgetJournal = store.BudgetStore
	// SkillJournal is the narrow interface skill updates persist
	// through.
	SkillJournal = store.SkillStore
	// CampaignJournal is the narrow interface campaign checkpoints
	// persist through.
	CampaignJournal = store.CampaignStore
	// MemStateStore is the in-memory reference backend (no journal).
	MemStateStore = store.MemStore
)

// OpenStateStore opens (creating if needed) a state directory and
// recovers its snapshot + WAL into memory.
var OpenStateStore = store.Open

// NewMemStateStore returns an empty in-memory store.
var NewMemStateStore = store.NewMemStore

// StateSnapshotEvery sets how many WAL records accumulate before an
// automatic snapshot folds and resets the log.
var StateSnapshotEvery = store.SnapshotEvery

// ErrStateCorrupt reports store content failing its integrity checks
// beyond the WAL's tolerated torn tail.
var ErrStateCorrupt = store.ErrCorrupt

// Observability (internal/telemetry): stdlib-only metrics and tracing
// for the auction pipeline. All types follow the nil-is-nop convention:
// a nil registry, tracer or handle is fully usable and records nothing.
type (
	// TelemetryRegistry holds named counters, gauges and histograms and
	// renders them in Prometheus text exposition format.
	TelemetryRegistry = telemetry.Registry
	// TelemetryTracer records span trees exportable as JSON.
	TelemetryTracer = telemetry.Tracer
	// TelemetrySpan is one timed operation in a trace.
	TelemetrySpan = telemetry.Span
	// TelemetryClock is the injected time source telemetry reads.
	TelemetryClock = telemetry.Clock
	// ManualClock is a hand-advanced TelemetryClock for tests.
	ManualClock = telemetry.ManualClock
)

// NewTelemetryRegistry returns an empty live registry.
var NewTelemetryRegistry = telemetry.NewRegistry

// NewTelemetryTracer returns an empty live tracer.
var NewTelemetryTracer = telemetry.NewTracer

// TelemetryWallClock is the module's sanctioned wall-clock time source.
var TelemetryWallClock = telemetry.WallClock

// NewManualClock returns a ManualClock starting at the given instant.
var NewManualClock = telemetry.NewManualClock

// Structured event logging (internal/telemetry/evlog): the module's
// redaction-safe JSONL event stream. The field API admits bid-typed
// values only through EventRedacted/EventAggregate wrappers, so the
// log cannot leak DP-protected inputs; a nil *EventLogger is fully
// usable and records nothing at zero cost.
type (
	// EventLogger collects leveled structured events into a bounded
	// in-memory buffer, optionally writing through to a sink.
	EventLogger = evlog.Logger
	// EventLoggerOption configures NewEventLogger.
	EventLoggerOption = evlog.Option
	// EventLevel is an event severity (debug, info, warn, error).
	EventLevel = evlog.Level
	// EventField is one key/value pair of an event.
	EventField = evlog.Field
	// Event is one decoded event of the JSONL stream.
	Event = evlog.Event
	// BudgetLedger is the privacy-budget audit trail folded from a
	// stream's budget.spend / budget.refuse events.
	BudgetLedger = evlog.BudgetLedger
)

// Event severities.
const (
	EventLevelDebug = evlog.LevelDebug
	EventLevelInfo  = evlog.LevelInfo
	EventLevelWarn  = evlog.LevelWarn
	EventLevelError = evlog.LevelError
)

// NewEventLogger returns a live event logger.
var NewEventLogger = evlog.New

// Event logger options.
var (
	// WithEventSink streams every rendered event line to a writer as it
	// is logged.
	WithEventSink = evlog.WithSink
	// WithEventMinLevel drops events below the given severity.
	WithEventMinLevel = evlog.WithMinLevel
	// WithEventClock injects the logger's time source.
	WithEventClock = evlog.WithClock
)

// WithEventLog streams the auction core's construction events (build,
// cover, reweight) into an event logger; nil disables at zero cost.
func WithEventLog(lg *EventLogger) Option { return core.WithEventLog(lg) }

// Event field constructors. EventRedacted marks a DP-protected value's
// presence without its value; EventAggregate carries a sanctioned DP
// release (a mechanism output such as the clearing price). There is
// deliberately no constructor that accepts an arbitrary value: the
// typed set is the redaction policy.
var (
	EventString    = evlog.String
	EventInt       = evlog.Int
	EventInt64     = evlog.Int64
	EventFloat     = evlog.Float
	EventBool      = evlog.Bool
	EventSeconds   = evlog.Seconds
	EventRedacted  = evlog.Redacted
	EventAggregate = evlog.Aggregate
)

// ReadEvents decodes and validates a JSONL event stream; ReadEventsFile
// reads one from disk.
var (
	ReadEvents     = evlog.ReadJSONL
	ReadEventsFile = evlog.ReadFile
)

// FoldBudget replays a stream's budget events into a BudgetLedger,
// cross-checkable against the accountant's totals.
var FoldBudget = evlog.FoldBudget

// Run provenance (internal/telemetry): a manifest records everything
// needed to attribute and replay a run — config, seeds, epsilons,
// toolchain, VCS revision, and a content-hash index of the artifacts
// the run produced.
type (
	// Manifest is one run's provenance record.
	Manifest = telemetry.Manifest
	// ManifestSeed is one named RNG seed of a run.
	ManifestSeed = telemetry.ManifestSeed
	// ManifestArtifact is one produced file with its SHA-256.
	ManifestArtifact = telemetry.ManifestArtifact
	// ManifestBudget snapshots the privacy accountant at run end.
	ManifestBudget = telemetry.ManifestBudget
	// ArtifactCheck is one artifact's verification result.
	ArtifactCheck = telemetry.ArtifactCheck
)

// NewManifest starts a manifest for the named command, stamping
// toolchain and VCS provenance; ReadManifest decodes and validates one.
var (
	NewManifest  = telemetry.NewManifest
	ReadManifest = telemetry.ReadManifest
)

// Operator console (internal/console): one HTTP surface over a running
// platform's metrics registry, event-stream tail, DP-budget ledger and
// shard occupancy — an HTML dashboard with server-side SVG charts plus
// JSON endpoints (/api/overview, /api/rounds, /api/events) serving the
// same aggregates. Wire it with NewConsoleServer over a ConsoleConfig
// and mount ConsoleServer.Handler on any http.Server.
type (
	// ConsoleServer renders the operator console.
	ConsoleServer = console.Server
	// ConsoleConfig wires a console to a platform's observability
	// surfaces; every field is optional and absent sources degrade to
	// absent panels.
	ConsoleConfig = console.Config
	// ConsoleStatus is the live round/phase position as the console
	// consumes it (adapt from Platform.Status).
	ConsoleStatus = console.Status
	// ConsoleOverview is the /api/overview aggregate.
	ConsoleOverview = console.Overview
	// EventTailBuffer is the bounded ring over rendered event lines
	// that feeds the console's drill-down and burn-down views; attach
	// with WithEventTail. Overflow evicts oldest-first without ever
	// blocking the logging hot path.
	EventTailBuffer = evlog.TailBuffer
	// EventTailEntry is one retained line in an EventTailBuffer.
	EventTailEntry = evlog.TailEntry
	// BudgetPoint is one step of the console's epsilon burn-down.
	BudgetPoint = evlog.BudgetPoint
	// MetricsSnapshot is a consistent point-in-time read of every
	// series in a TelemetryRegistry (see Registry.Snapshot).
	MetricsSnapshot = telemetry.Snapshot
	// RoundStatus is the platform's published round/phase position.
	RoundStatus = protocol.RoundStatus
	// ShardPartitionStats is one partition's live occupancy and fault
	// counters (see Platform.ShardStats).
	ShardPartitionStats = shard.PartitionStats
)

// Round phases as published in RoundStatus.Phase.
const (
	PhaseIdle        = protocol.PhaseIdle
	PhaseCollectBids = protocol.PhaseCollectBids
	PhaseAuction     = protocol.PhaseAuction
	PhaseLabels      = protocol.PhaseLabels
	PhaseAggregate   = protocol.PhaseAggregate
)

// NewConsoleServer builds a console over the configured sources;
// NewEventTailBuffer allocates the event ring (capacity <= 0 takes the
// 2048 default) and WithEventTail attaches it to an event logger.
var (
	NewConsoleServer   = console.New
	NewEventTailBuffer = evlog.NewTailBuffer
	WithEventTail      = evlog.WithTail
)
