package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// SelectionRule chooses how the winner set for a candidate price is
// computed.
type SelectionRule int

const (
	// RuleGreedy is Algorithm 1's marginal-gain greedy: lazy-evaluated,
	// and warm-started from the previous candidate count's selections
	// (see greedyCoverFrom). Its output is identical to the naive scan.
	RuleGreedy SelectionRule = iota
	// RuleGreedyNaive is the literal per-selection argmax scan of
	// Algorithm 1; used for ablation benches and cross-checks.
	RuleGreedyNaive
	// RuleStatic is the baseline auction of Section VII-A: descending
	// static total quality.
	RuleStatic
)

// String implements fmt.Stringer.
func (r SelectionRule) String() string {
	switch r {
	case RuleGreedy:
		return "greedy"
	case RuleGreedyNaive:
		return "greedy-naive"
	case RuleStatic:
		return "static"
	default:
		return fmt.Sprintf("SelectionRule(%d)", int(r))
	}
}

// Option configures an Auction.
type Option func(*config)

type config struct {
	rule        SelectionRule
	priceSet    []float64
	hasPriceSet bool
	telemetry   *telemetry.Registry
	events      *evlog.Logger
}

// WithRule selects the winner-set computation rule. The default is
// RuleGreedy (the paper's mechanism).
func WithRule(r SelectionRule) Option {
	return func(c *config) { c.rule = r }
}

// WithPriceSet fixes the mechanism's support to the given ascending
// price set P instead of deriving the feasible subset of the instance's
// grid. Algorithm 1 takes P as an explicit input; fixing it across
// adjacent bid profiles is what makes the differential-privacy
// guarantee hold exactly (the support must not itself depend on a
// single worker's bid). Prices in P that turn out infeasible for the
// current bids are kept in the support with the maximal penalty payment
// pMax*N (support maximum times worker count) so the mechanism remains
// total while never preferring an infeasible outcome; see
// PriceInfo.Feasible and the penalty note on prepared.priceInfo.
func WithPriceSet(p []float64) Option {
	return func(c *config) {
		c.priceSet = append([]float64(nil), p...)
		c.hasPriceSet = true
	}
}

// WithTelemetry records construction metrics (mcs_core_*) and the
// mechanism's sampling metrics in reg. Timing goes through the
// registry's injected clock, so the auction itself stays free of
// wall-clock reads; a nil registry keeps the zero-overhead nop path.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.telemetry = reg }
}

// WithEventLog records structured build/cover/reweight events in lg
// (core.build, core.cover, core.reweight) and threads it into the
// mechanism's per-sample events. Events carry population-level counts
// and public parameters only — never bids, payments, or anything
// bid-derived; the DP output (sampled index) is the sole release. A
// nil logger keeps the zero-overhead nop path. Auctions derived via
// Reweight inherit the logger.
func WithEventLog(lg *evlog.Logger) Option {
	return func(c *config) { c.events = lg }
}

// PriceInfo describes the mechanism's state at one support price.
type PriceInfo struct {
	// Price is the candidate single clearing price x.
	Price float64
	// Winners is the winner set S(x) (indices into Instance.Workers),
	// in selection order. Nil when infeasible.
	Winners []int
	// Payment is the total payment the platform would make at this
	// price: Price*len(Winners), or the penalty pMax*N (support maximum
	// times worker count) when the price is infeasible for the current
	// bids.
	Payment float64
	// Feasible reports whether the workers bidding at most Price can
	// cover every task's error-bound constraint.
	Feasible bool
}

// Auction is a fully precomputed DP-hSRC auction over one instance: the
// winner set and total payment for every support price, and the
// exponential mechanism over prices. Construct with New; an Auction is
// immutable between builds and safe for concurrent use. Rebuild
// replaces the instance in place, reusing New's buffers. Analyses that
// need every winner set or the exact PMF use an Auction; a caller that
// only releases one price per instance uses a Drawer.
type Auction struct {
	inst   Instance
	prices []PriceInfo
	mech   *mechanism.Exponential
	// gainEvals counts marginal-gain evaluations performed during the
	// latest build; exposed for the lazy-vs-naive ablation.
	gainEvals int
	// cfg preserves the construction options, so Rebuild reconstructs
	// under exactly the rule, support, telemetry registry and event log
	// New was given, and Reweight-derived auctions inherit the registry
	// and the event log.
	cfg config
	// bs owns every reusable build buffer. It is nil on Reweight-derived
	// auctions, whose prices alias the base auction's buffers; Rebuild
	// detects that and switches to fresh buffers so it can never clobber
	// the base.
	bs *buildState
}

// prepared is the one preparation pass that New, Rebuild and
// Drawer.Prepare share: validation, the private instance copy, the CSR
// cover problem, the bid order, each support price's candidate count
// and the feasibility floor. Every buffer is reused from pass to pass.
type prepared struct {
	inst Instance
	cp   coverProblem
	// sorted lists worker indices ascending by bid with index tie-break
	// (Algorithm 1 line 1); bids holds their bids in that order.
	sorted []int
	bids   []float64
	// support is the mechanism's ascending price support: the
	// WithPriceSet prices, or else the feasible suffix of the grid.
	// countOf[k] is support[k]'s candidate count, the number of bids at
	// or below it; winner sets depend on the price only through it.
	support []float64
	countOf []int
	// counts backs countOf for every candidate price, the grid's
	// infeasible prefix included.
	counts []int
	// floor is the smallest feasible candidate count (coverProblem.floor):
	// support[k] is feasible exactly when countOf[k] >= floor.
	floor int
	// bundleFlat/skillFlat back the instance copy's per-worker bundle
	// and skill-row slices (Instance.copyFrom).
	bundleFlat []int
	skillFlat  []float64
}

// prepare runs the preparation pass over src under cfg; s holds the
// floor's per-task sums. It returns ErrInfeasible when the default
// support (no WithPriceSet) holds no feasible price.
func (p *prepared) prepare(src *Instance, cfg *config, s *coverScratch) error {
	if err := src.Validate(); err != nil {
		return err
	}
	if cfg.hasPriceSet {
		if len(cfg.priceSet) == 0 {
			return ErrEmptySupport
		}
		if err := checkPrices(cfg.priceSet, src.CMax); err != nil {
			return err
		}
	}
	p.bundleFlat, p.skillFlat = p.inst.copyFrom(src, p.bundleFlat, p.skillFlat)
	p.cp.reset(&p.inst)
	n := len(p.inst.Workers)

	// The total-order comparator makes the unstable sort reproduce the
	// previous stable sort exactly.
	p.sorted = p.sorted[:0]
	for i := 0; i < n; i++ {
		p.sorted = append(p.sorted, i)
	}
	sort.Sort(&bidOrder{idx: p.sorted, workers: p.inst.Workers})
	p.bids = p.bids[:0]
	for _, i := range p.sorted {
		p.bids = append(p.bids, p.inst.Workers[i].Bid)
	}
	p.floor = p.cp.floor(s, p.sorted)

	support := p.inst.PriceGrid
	if cfg.hasPriceSet {
		support = cfg.priceSet
	}
	p.counts = p.counts[:0]
	first := len(support)
	for k, x := range support {
		count := sort.SearchFloat64s(p.bids, x+priceEps)
		p.counts = append(p.counts, count)
		if count >= p.floor && first == len(support) {
			first = k
		}
	}
	lo := 0
	if !cfg.hasPriceSet {
		// Default support: the feasible subset of the grid, exactly the
		// paper's price set P. Candidate counts ascend with the price,
		// so that subset is a suffix.
		if first == len(support) {
			return ErrInfeasible
		}
		lo = first
	}
	p.support, p.countOf = support[lo:], p.counts[lo:]
	return nil
}

// priceInfo is support price k's entry, given its candidate count's
// winner set (ignored when the price is infeasible).
//
// Infeasible support prices carry the penalty payment pMax*N, the worst
// payment any feasible price can reach over the support. With an
// explicit price set the infeasible prices are the LOWEST ones
// (feasibility is monotone in price), so a per-price penalty x*N could
// undercut every feasible payment and the payment-minimizing
// exponential mechanism would preferentially sample infeasible
// outcomes; pinning the penalty to the support maximum keeps the
// totality device maximally dispreferred. Sensitivity: every support
// price lies in (0, cmax] (checkPrices refuses one above CMax), so
// every score stays in [0, cmax*N] and a single-bid change moves any
// price's payment by at most N*cmax, so Theorem 2's 2*N*cmax
// normalizer in PaymentLogWeight still covers the penalty.
func (p *prepared) priceInfo(k int, winners []int) PriceInfo {
	x := p.support[k]
	if p.countOf[k] < p.floor {
		return PriceInfo{Price: x, Payment: p.support[len(p.support)-1] * float64(len(p.sorted))}
	}
	return PriceInfo{Price: x, Winners: winners, Payment: x * float64(len(winners)), Feasible: true}
}

// buildState is the reusable memory behind an Auction's build: the
// preparation pass plus the distinct-count table, the per-count winner
// cache, the payment vector and the one cover scratch every cover of
// the build runs on. One buildState serves one auction; nothing here is
// shared across auctions.
type buildState struct {
	prepared
	s         coverScratch
	seenCount []bool
	distinct  []int
	// cache is indexed by candidate count (0..N); only entries for the
	// current build's distinct counts are written and read.
	cache    [][]int
	payments []float64
}

// Outcome is the sampled result of one run of the auction.
type Outcome struct {
	// Price is the sampled clearing price p.
	Price float64
	// Winners are the indices of the winning workers; each is paid
	// exactly Price (single-price payment, Section IV).
	Winners []int
	// TotalPayment is Price * len(Winners).
	TotalPayment float64
	// Feasible reports whether the sampled price admitted a covering
	// winner set. With a support built by New from the instance's own
	// grid this is always true.
	Feasible bool
}

// Payments returns the per-worker payment vector (the paper's p): the
// clearing price for winners and zero for losers. numWorkers must cover
// every winner index; an outcome paired with the wrong instance returns
// a descriptive ErrWorkerIndex error instead of panicking.
func (o Outcome) Payments(numWorkers int) ([]float64, error) {
	pay := make([]float64, numWorkers)
	for _, w := range o.Winners {
		if w < 0 || w >= numWorkers {
			return nil, fmt.Errorf("%w: winner %d in an outcome settled for %d workers", ErrWorkerIndex, w, numWorkers)
		}
		pay[w] = o.Price
	}
	return pay, nil
}

// New validates the instance, computes the winner set for every support
// price (sharing work across prices between consecutive bid values,
// Algorithm 1 lines 14-15) and prepares the exponential mechanism over
// prices. It returns ErrInfeasible if no price in the instance grid is
// feasible and no explicit price set was provided.
func New(inst Instance, opts ...Option) (*Auction, error) {
	a := &Auction{cfg: newConfig(opts), bs: &buildState{}}
	if err := a.build(&inst); err != nil {
		return nil, err
	}
	return a, nil
}

// newConfig applies opts over the defaults.
func newConfig(opts []Option) config {
	cfg := config{rule: RuleGreedy}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Rebuild reconstructs the auction in place over a new instance,
// reusing every build buffer — the CSR cover problem, the price/count
// tables, the winner-set arena, the prices and payment vectors — so a
// caller that builds many instances pays New's allocations once. The
// construction options New was given (rule, explicit price set,
// telemetry, event log) carry over, which in particular keeps a
// WithPriceSet support fixed across instances exactly as the DP
// guarantee requires. The result is bitwise-identical to New(inst,
// sameOptions...).
//
// Rebuild invalidates everything obtained from the previous build:
// Support/SupportPrices/PMF slices, and any auction derived from the
// receiver via Reweight (their winner sets alias the rebuilt buffers).
// Outcomes from Run are copies and stay valid. Rebuilding a
// Reweight-derived auction is safe for the base: the derived auction
// detaches onto fresh buffers first. On error the auction is left
// unusable (its mechanism is cleared) until a subsequent Rebuild
// succeeds. An Auction is safe for concurrent readers only between
// builds; the caller must not Rebuild concurrently with any other use.
func (a *Auction) Rebuild(inst Instance) error {
	if a.bs == nil {
		// Reweight-derived: prices alias the base auction's arena, so
		// detach onto fresh buffers rather than clobbering the base.
		a.bs = &buildState{}
		a.prices = nil
	}
	if err := a.build(&inst); err != nil {
		return err
	}
	a.cfg.telemetry.Counter("mcs_core_rebuilds_total",
		"In-place auction reconstructions that reuse build buffers across rounds.").Inc()
	return nil
}

// build runs the full construction into the auction's reusable build
// state. On error the auction is left unusable (mech == nil).
func (a *Auction) build(src *Instance) error {
	reg := a.cfg.telemetry
	buildStart := reg.Now()
	a.mech = nil
	bs := a.bs
	err := bs.prepare(src, &a.cfg, &bs.s)
	a.inst = bs.inst
	if err != nil {
		return err
	}
	bs.s.arena.reset()
	bs.s.evals = 0
	n := len(a.inst.Workers)

	// Compute each distinct candidate count's winner set once. This is
	// the interval-sharing optimization of Algorithm 1 lines 14-15 that
	// removes the dependency on |P|.
	if cap(bs.seenCount) < n+1 {
		bs.seenCount = make([]bool, n+1)
	} else {
		bs.seenCount = bs.seenCount[:n+1]
		for i := range bs.seenCount {
			bs.seenCount[i] = false
		}
	}
	bs.distinct = bs.distinct[:0]
	for _, count := range bs.counts {
		if !bs.seenCount[count] {
			bs.seenCount[count] = true
			bs.distinct = append(bs.distinct, count)
		}
	}
	if cap(bs.cache) < n+1 {
		bs.cache = make([][]int, n+1)
	} else {
		bs.cache = bs.cache[:n+1]
	}
	a.coverByCount()

	if cap(a.prices) < len(bs.support) {
		a.prices = make([]PriceInfo, 0, len(bs.support))
	} else {
		a.prices = a.prices[:0]
	}
	bs.payments = bs.payments[:0]
	for k, count := range bs.countOf {
		info := bs.priceInfo(k, bs.cache[count])
		a.prices = append(a.prices, info)
		bs.payments = append(bs.payments, info.Payment)
	}
	logW := mechanism.PaymentLogWeights(bs.payments, a.inst.Epsilon, n, a.inst.CMax)
	mech, err := mechanism.NewExponential(logW)
	if err != nil {
		return fmt.Errorf("core: building exponential mechanism: %w", err)
	}
	a.mech = mech
	a.mech.Instrument(reg)
	a.mech.InstrumentEvents(a.cfg.events)
	a.gainEvals = bs.s.evals
	reportBuild(reg, a.cfg.events, a.cfg.rule, &a.inst, len(a.prices), a.gainEvals, reg.Since(buildStart))
	return nil
}

// reportBuild records one construction, an Auction's build or a
// Drawer's prepare and draw: the core.build event and the mcs_core_*
// construction metrics.
func reportBuild(reg *telemetry.Registry, ev *evlog.Logger, rule SelectionRule, inst *Instance, supportSize, gainEvals int, seconds float64) {
	ev.Info("core.build",
		evlog.Int("workers", len(inst.Workers)),
		evlog.Int("tasks", inst.NumTasks),
		evlog.Int("support_size", supportSize),
		evlog.Int("gain_evals", gainEvals),
		evlog.Float("eps", inst.Epsilon),
		evlog.String("rule", rule.String()),
		evlog.Bool("shared", false))
	reg.Counter("mcs_core_auctions_total", "DP-hSRC auctions constructed.").Inc()
	reg.Counter("mcs_core_gain_evals_total",
		"Marginal-gain evaluations performed by greedy winner-set construction.").Add(int64(gainEvals))
	reg.Histogram("mcs_core_support_size",
		"Candidate-price-set size per constructed auction.", telemetry.SizeBuckets).
		Observe(float64(supportSize))
	reg.Histogram("mcs_core_build_seconds",
		"Full auction construction time (winner sets plus mechanism).", telemetry.TimeBuckets).
		Observe(seconds)
}

// priceEps is the tolerance used when comparing bids to grid prices, so
// that a bid exactly equal to a grid price is counted as a candidate.
const priceEps = 1e-9

// Reweight returns a new Auction over the same instance, support and
// winner sets but with privacy budget eps: only the exponential
// mechanism's log-weights (Eq. 10) are rebuilt. Winner sets depend on
// the bids and the support but never on epsilon, so an epsilon sweep
// over one instance (Figure 5, leakage measurements) pays winner-set
// construction once and reweights per sweep point — no marginal-gain
// evaluations are performed here and GainEvaluations is inherited
// unchanged. The receiver is untouched and both auctions remain safe
// for concurrent use; reweights count into mcs_core_reweights_total on
// the registry the receiver was constructed with. The derived auction's
// winner sets alias the receiver's, so a later Rebuild of the receiver
// invalidates the derived auction (a Rebuild of the derived auction
// detaches it first and is safe).
func (a *Auction) Reweight(eps float64) (*Auction, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("%w: eps=%v", ErrBadEpsilon, eps)
	}
	// Shallow instance copy: the shared slices are never mutated after
	// construction, and Instance() clones before handing them out.
	inst := a.inst
	inst.Epsilon = eps
	nw := &Auction{inst: inst, prices: a.prices, gainEvals: a.gainEvals, cfg: a.cfg}
	logW := mechanism.PaymentLogWeights(nw.paymentVector(), eps, len(inst.Workers), inst.CMax)
	mech, err := mechanism.NewExponential(logW)
	if err != nil {
		return nil, fmt.Errorf("core: reweighting exponential mechanism: %w", err)
	}
	nw.mech = mech
	nw.mech.Instrument(a.cfg.telemetry)
	nw.mech.InstrumentEvents(a.cfg.events)
	a.cfg.telemetry.Counter("mcs_core_reweights_total",
		"Mechanism-only rebuilds that reuse an auction's winner sets across a privacy-budget sweep.").Inc()
	// shared:true is the ledger's record that this sweep point reused
	// the receiver's winner sets instead of rebuilding them.
	a.cfg.events.Info("core.reweight",
		evlog.Float("eps", eps),
		evlog.Int("support_size", len(nw.prices)),
		evlog.Bool("shared", true))
	return nw, nil
}

// coverByCount computes the winner set for every distinct candidate
// count into bs.cache; a count below the floor has none. The distinct
// counts ascend with the support, so each count's candidates extend the
// previous count's, and under RuleGreedy each cover warm-starts from its
// predecessor's trajectory. The chain never outlives one build, so a
// build or Rebuild always starts cold, and GainEvaluations is a pure
// function of the instance, the rule and the support. Retained winner
// slices are saved into the scratch's arena. Per-count evaluation time
// lands in mcs_core_cover_seconds.
func (a *Auction) coverByCount() {
	bs := a.bs
	reg, rule := a.cfg.telemetry, a.cfg.rule
	coverSeconds := coverSeconds(reg)
	prev := 0
	for _, count := range bs.distinct {
		start := reg.Now()
		var winners []int
		feasible := count >= bs.floor
		if feasible {
			winners = bs.s.arena.save(bs.cp.cover(rule, &bs.s, bs.sorted[:count], prev))
			if rule == RuleGreedy {
				prev = count
			}
		}
		bs.cache[count] = winners
		coverSeconds.Observe(reg.Since(start))
		// Candidate counts and winner-set sizes are population-level.
		coverEvent(a.cfg.events, count, winners, feasible)
	}
}

// coverSeconds is the histogram that times each computed winner set.
func coverSeconds(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.Histogram("mcs_core_cover_seconds",
		"Winner-set computation time per distinct candidate count.", telemetry.TimeBuckets)
}

// coverEvent emits one core.cover event.
func coverEvent(ev *evlog.Logger, count int, winners []int, feasible bool) {
	ev.Debug("core.cover",
		evlog.Int("candidates", count),
		evlog.Int("winners", len(winners)),
		evlog.Bool("feasible", feasible))
}

// bidOrder sorts worker indices ascending by bid, breaking ties by
// index for determinism (Algorithm 1 line 1). The comparator is a
// strict total order, so the unstable sort.Sort reproduces the previous
// stable sort exactly without its closure and reflection allocations.
type bidOrder struct {
	idx     []int
	workers []Worker
}

func (s *bidOrder) Len() int      { return len(s.idx) }
func (s *bidOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *bidOrder) Less(a, b int) bool {
	//mcslint:allow MCS-FLT001 comparator tie-break: exact inequality keeps the order a strict weak ordering and falls through to index
	if ba, bb := s.workers[s.idx[a]].Bid, s.workers[s.idx[b]].Bid; ba != bb {
		return ba < bb
	}
	return s.idx[a] < s.idx[b]
}

// Run samples a clearing price from the exponential mechanism
// (Algorithm 1 line 16) and returns the corresponding outcome.
func (a *Auction) Run(r *rand.Rand) Outcome {
	return a.prices[a.mech.Sample(r)].outcome()
}

// outcome materializes the outcome that releases this price, with its
// own copy of the winner set.
func (info PriceInfo) outcome() Outcome {
	return Outcome{
		Price:        info.Price,
		Winners:      append([]int(nil), info.Winners...),
		TotalPayment: info.Payment,
		Feasible:     info.Feasible,
	}
}

// Support returns the mechanism's price support P with per-price winner
// sets and payments. The returned slice is shared; callers must not
// mutate it, and it is only valid until the next Rebuild.
func (a *Auction) Support() []PriceInfo { return a.prices }

// PMF returns the exact output distribution over the support prices.
// Index i of the returned slice corresponds to Support()[i].
func (a *Auction) PMF() []float64 { return a.mech.PMF() }

// ExpectedPayment returns the exact expected total payment
// E[x*|S(x)|] under the mechanism's output distribution.
func (a *Auction) ExpectedPayment() float64 {
	return a.mech.ExpectedScore(a.paymentVector())
}

// paymentVector returns the per-price total payments.
func (a *Auction) paymentVector() []float64 {
	pay := make([]float64, len(a.prices))
	for i, info := range a.prices {
		pay[i] = info.Payment
	}
	return pay
}

// ExpectedUtility returns the exact expected utility of the given
// worker assuming her true cost is trueCost: sum over support prices of
// P(x) * (x - trueCost) * [worker wins at x]. This makes Theorem 3's
// approximate-truthfulness bound directly checkable.
func (a *Auction) ExpectedUtility(worker int, trueCost float64) (float64, error) {
	if worker < 0 || worker >= len(a.inst.Workers) {
		return 0, fmt.Errorf("%w: %d", ErrWorkerIndex, worker)
	}
	pmf := a.PMF()
	eu := 0.0
	for i, info := range a.prices {
		if !info.Feasible {
			continue
		}
		for _, w := range info.Winners {
			if w == worker {
				eu += pmf[i] * (info.Price - trueCost)
				break
			}
		}
	}
	return eu, nil
}

// WinProbability returns the probability that the given worker is in
// the winner set under the mechanism's output distribution.
func (a *Auction) WinProbability(worker int) (float64, error) {
	if worker < 0 || worker >= len(a.inst.Workers) {
		return 0, fmt.Errorf("%w: %d", ErrWorkerIndex, worker)
	}
	pmf := a.PMF()
	p := 0.0
	for i, info := range a.prices {
		for _, w := range info.Winners {
			if w == worker {
				p += pmf[i]
				break
			}
		}
	}
	return p, nil
}

// Mechanism exposes the underlying exponential mechanism for privacy
// analysis (leakage measurement across adjacent bid profiles).
func (a *Auction) Mechanism() *mechanism.Exponential { return a.mech }

// Instance returns a copy of the auction's instance.
func (a *Auction) Instance() Instance { return a.inst.Clone() }

// Rule returns the configured selection rule.
func (a *Auction) Rule() SelectionRule { return a.cfg.rule }

// GainEvaluations returns the number of marginal-gain evaluations
// accounted during the latest build (ablation instrumentation; zero for
// rules that do not track it).
func (a *Auction) GainEvaluations() int { return a.gainEvals }

// SupportPrices returns just the support price values, in order.
func (a *Auction) SupportPrices() []float64 {
	out := make([]float64, len(a.prices))
	for i, info := range a.prices {
		out[i] = info.Price
	}
	return out
}
