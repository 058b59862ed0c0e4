// Package dphsrc is a Go implementation of the DP-hSRC auction from
// "Enabling Privacy-Preserving Incentives for Mobile Crowd Sensing
// Systems" (Jin, Su, Ding, Nahrstedt, Borisov — ICDCS 2016): a
// differentially private, approximately truthful, individually rational
// and computationally efficient reverse combinatorial auction that a
// mobile-crowd-sensing platform uses to buy binary classification
// labels from strategic workers while bounding every task's aggregation
// error and approximately minimizing its total payment.
//
// This root package is the paper's API for downstream users. It
// re-exports, from the library's internal packages:
//
//   - the mechanism, Algorithm 1, with its outcome check and instance
//     decoder (Instance, Auction, New, VerifyOutcome, DecodeInstance);
//   - the exact "Optimal" baseline solver used in the paper's
//     evaluation (Optimal);
//   - sensing and aggregation: label simulation, Lemma-1 weighted
//     aggregation, and EM truth discovery (RunCampaign,
//     WeightedAggregate, EstimateSkills);
//   - the privacy measures: leakage, the Bayes-optimal distinguisher,
//     composition and budget accounting (MeasureLeakage, EpsilonSweep,
//     NewDistinguisher, NewAccountant);
//   - the workloads: the Table-I settings and seeded randomness
//     (SettingI..SettingIV, NewSeeder);
//   - the experiment runners that regenerate every figure and table of
//     the paper (Figure1..Figure5, Table2);
//   - the served round: the TCP platform and worker client for running
//     real distributed rounds (NewPlatform, Participate,
//     NewEventLogger).
//
// Operator tooling (metrics, tracing, the event-log readers, durable
// state, sharding, the console and fault injection) is internal; the
// commands under cmd/ import those packages directly.
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
	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/experiment"
	"github.com/dphsrc/dphsrc/internal/ilp"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/privacy"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/stats"
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

// PriceGridRange builds the ascending grid {lo, lo+step, ..., <= hi}.
// It panics unless lo, hi and step are finite with lo <= hi and
// step > 0, and the grid holds at most 2^20 points. See
// core.PriceGridRange.
func PriceGridRange(lo, hi, step float64) []float64 { return core.PriceGridRange(lo, hi, step) }

// ErrInfeasible reports that no price in the instance grid admits a
// winner set satisfying every task's error-bound constraint.
var ErrInfeasible = core.ErrInfeasible

// VerifyOutcome checks an auction outcome against its instance
// (coverage, individual rationality, payment consistency).
var VerifyOutcome = core.VerifyOutcome

// DecodeInstance reads and validates one JSON instance, rejecting any
// input that follows it.
var DecodeInstance = core.DecodeInstance

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

// Sensing and aggregation (internal/crowd).
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

var (
	// RunCampaign executes the full MCS workflow on a simulated crowd:
	// auction, sensing, Lemma-1 aggregation and settlement.
	RunCampaign = crowd.RunCampaign
	// Collect simulates the sensing phase for a set of workers.
	Collect = crowd.Collect
	// TrueLabels draws a uniformly random ground-truth label vector.
	TrueLabels = crowd.TrueLabels
	// WeightedAggregate aggregates labels with Lemma 1's skill-weighted
	// rule.
	WeightedAggregate = crowd.WeightedAggregate
	// MajorityVote is the unweighted aggregation baseline.
	MajorityVote = crowd.MajorityVote
	// ErrorRate is the fraction of tasks labeled incorrectly.
	ErrorRate = crowd.ErrorRate
	// EmpiricalTaskError Monte-Carlo-verifies Lemma 1's per-task error
	// bound for a winner set.
	EmpiricalTaskError = crowd.EmpiricalTaskError
	// EstimateSkills runs one-coin Dawid-Skene EM truth discovery to
	// recover worker accuracies without ground truth.
	EstimateSkills = crowd.EstimateSkills
	// SkillMatrix expands per-worker accuracies to the theta matrix the
	// auction consumes.
	SkillMatrix = crowd.SkillMatrix
)

// Privacy measures (internal/mechanism, internal/privacy): leakage
// between adjacent bid profiles, the honest-but-curious worker of the
// paper's threat model as an analyzable attacker, and budget
// accounting across repeated rounds.
type (
	// Leakage quantifies distinguishability of two mechanism outputs
	// (Definition 8: KL divergence, plus max-log-ratio and TV).
	Leakage = mechanism.Leakage
	// LeakagePoint is one epsilon of a payment-privacy sweep.
	LeakagePoint = privacy.LeakagePoint
	// Distinguisher is the Bayes-optimal attacker deciding between two
	// hypotheses about a victim's bid from observed auction outcomes.
	Distinguisher = privacy.Distinguisher
	// Accountant meters cumulative privacy loss across repeated
	// auction rounds under basic sequential composition.
	Accountant = mechanism.Accountant
)

var (
	// MeasureLeakage compares the exact output distributions of two
	// auctions built from adjacent bid profiles (same price support).
	MeasureLeakage = mechanism.MeasureLeakage
	// EpsilonSweep traces the payment-privacy trade-off between two
	// auctions built from adjacent bid profiles over the same fixed
	// price support; each point derives from the precomputed auctions
	// by Auction.Reweight, so winner sets are constructed once per
	// profile.
	EpsilonSweep = privacy.EpsilonSweep
	// NewDistinguisher builds the attacker from the two hypothesis PMFs
	// (e.g. Auction.PMF() of two adjacent instances over a shared
	// support).
	NewDistinguisher = privacy.NewDistinguisher
	// AdvantageBound is the cap epsilon-DP places on any
	// single-observation attacker's advantage over random guessing.
	AdvantageBound = privacy.AdvantageBound
	// RoundsToDistinguish is the number of repeated observations after
	// which the composed DP bound first permits the target advantage.
	RoundsToDistinguish = privacy.RoundsToDistinguish
	// NewAccountant returns an accountant with the given total epsilon
	// budget.
	NewAccountant = mechanism.NewAccountant
	// ErrBudgetExhausted reports a refused release after the privacy
	// budget is spent.
	ErrBudgetExhausted = mechanism.ErrBudgetExhausted
)

// Workloads (internal/workload, internal/stats).
type (
	// WorkloadParams describes one simulated instance family (a row of
	// the paper's Table I).
	WorkloadParams = workload.Params
	// Seeder derives independent child seeds from a root seed.
	Seeder = stats.Seeder
)

var (
	// SettingI is Table I row I: K=30, N in [80,140].
	SettingI = workload.SettingI
	// SettingII is Table I row II: N=120, K in [20,50].
	SettingII = workload.SettingII
	// SettingIII is Table I row III: K=200, N in [800,1400].
	SettingIII = workload.SettingIII
	// SettingIV is Table I row IV: N=1000, K in [200,500].
	SettingIV = workload.SettingIV
	// NewSeeder returns a Seeder rooted at the given seed.
	NewSeeder = stats.NewSeeder
)

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

// Served round (internal/protocol, internal/telemetry/evlog).
type (
	// Platform runs DP-hSRC auction rounds over TCP.
	Platform = protocol.Platform
	// PlatformConfig parameterizes one auction round.
	PlatformConfig = protocol.PlatformConfig
	// RoundReport summarizes one completed round.
	RoundReport = protocol.RoundReport
	// SkillFunc supplies the platform's skill estimate for a worker. A
	// returned row may be shared across calls and rounds and must not
	// be modified.
	SkillFunc = protocol.SkillFunc
	// SkillStore is the platform's learning skill record, updated by
	// truth discovery after every round (see
	// Platform.RunCampaignTolerant).
	SkillStore = protocol.SkillStore
	// WorkerConfig describes one participating worker client.
	WorkerConfig = protocol.WorkerConfig
	// WorkerReport is the client-side record of one round.
	WorkerReport = protocol.WorkerReport
	// LabelFunc produces a worker's sensed label for a task.
	LabelFunc = protocol.LabelFunc
	// RetryPolicy shapes a worker's exponential-backoff retry loop.
	RetryPolicy = protocol.RetryPolicy
	// EventLogger collects the round's redaction-safe structured events
	// (PlatformConfig.Events); a nil *EventLogger records nothing.
	EventLogger = evlog.Logger
)

var (
	// NewPlatform validates the configuration and returns a Platform.
	NewPlatform = protocol.NewPlatform
	// IsDegraded reports whether a round error is an expected
	// degradation (no bids, quorum not met, infeasible surviving bid
	// set) rather than a hard failure; degraded rounds spend no privacy
	// budget.
	IsDegraded = protocol.IsDegraded
	// NewSkillStore returns a store assuming the given prior accuracy
	// for unknown workers.
	NewSkillStore = protocol.NewSkillStore
	// Participate connects a worker client to a platform round.
	Participate = protocol.Participate
	// NewEventLogger returns a live event logger.
	NewEventLogger = evlog.New
	// WithEventSink streams every rendered event line to a writer as it
	// is logged.
	WithEventSink = evlog.WithSink
)
