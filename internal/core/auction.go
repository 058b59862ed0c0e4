package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

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
	parallelism int
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
// PriceInfo.Feasible and the penalty note in New.
func WithPriceSet(p []float64) Option {
	return func(c *config) {
		c.priceSet = append([]float64(nil), p...)
		c.hasPriceSet = true
	}
}

// WithParallelism computes the winner sets for distinct candidate
// counts on up to n goroutines, each taking one contiguous range of the
// ascending counts. The winner set for each count is a pure function of
// the instance, so results are identical to the sequential default.
// Construction wall-clock and GainEvaluations (each range starts its
// warm-start chain cold) change with n, never with scheduling. Values
// below 2 keep the sequential path. Callers that already fan instances
// across a worker pool (the experiment sweep engine) should keep inner
// builds sequential: the pool owns the parallelism budget, and nesting
// the two oversubscribes the scheduler (see DESIGN.md "Hot path &
// scratch memory").
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
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
// replaces the instance in place for round loops that would otherwise
// pay New's buffer allocations every round.
type Auction struct {
	inst   Instance
	rule   SelectionRule
	prices []PriceInfo
	mech   *mechanism.Exponential
	// reg is the telemetry registry the auction was constructed with
	// (nil is the nop registry); Reweight instruments derived mechanisms
	// against the same registry.
	reg *telemetry.Registry
	// ev is the structured event log (nil is the nop); inherited by
	// Reweight-derived auctions so epsilon sweeps keep their audit
	// trail.
	ev *evlog.Logger
	// gainEvals counts marginal-gain evaluations performed during the
	// latest build; exposed for the lazy-vs-naive ablation.
	gainEvals int
	// cfg preserves the construction options so Rebuild reconstructs
	// under exactly the rule, support and parallelism New was given.
	cfg config
	// bs owns every reusable build buffer. It is nil on Reweight-derived
	// auctions, whose prices alias the base auction's buffers; Rebuild
	// detects that and switches to fresh buffers so it can never clobber
	// the base.
	bs *buildState
}

// buildState is the reusable scratch memory behind build: the CSR cover
// problem, the bid-sorted index and bid arrays, the price-to-count
// tables, the per-count winner cache, the payment vector and the
// per-goroutine cover scratches, plus the flattened backing arrays for
// the auction's private instance copy. One buildState serves one
// auction; nothing here is shared across auctions.
type buildState struct {
	cp        coverProblem
	sorted    []int
	bids      []float64
	countOf   []int
	seenCount []bool
	distinct  []int
	// cache is indexed by candidate count (0..N); only entries for the
	// current build's distinct counts are written and read.
	cache     []coverResult
	payments  []float64
	scratches []*coverScratch
	// bundleFlat/skillFlat back the instance copy's per-worker bundle
	// and skill-row slices in two contiguous arrays, replacing the
	// two-allocations-per-worker deep clone.
	bundleFlat []int
	skillFlat  []float64
}

// scratch returns the cover scratch owned by pool worker w, creating it
// on first use. Callers hand index 0 to the sequential path.
func (bs *buildState) scratch(w int) *coverScratch {
	for len(bs.scratches) <= w {
		bs.scratches = append(bs.scratches, &coverScratch{})
	}
	return bs.scratches[w]
}

// cloneInto deep-copies src into dst reusing dst's and bs's backing
// arrays. src must already be validated; src must not alias dst's
// current backing (Instance() clones, so instances obtained from the
// auction itself are safe to pass back in).
func cloneInto(dst *Instance, src *Instance, bs *buildState) {
	dst.NumTasks = src.NumTasks
	dst.Epsilon = src.Epsilon
	dst.CMin = src.CMin
	dst.CMax = src.CMax
	dst.Thresholds = append(dst.Thresholds[:0], src.Thresholds...)
	dst.PriceGrid = append(dst.PriceGrid[:0], src.PriceGrid...)
	nb, ns := 0, 0
	for i := range src.Workers {
		nb += len(src.Workers[i].Bundle)
	}
	for i := range src.Skills {
		ns += len(src.Skills[i])
	}
	if cap(bs.bundleFlat) < nb {
		bs.bundleFlat = make([]int, 0, nb)
	}
	if cap(bs.skillFlat) < ns {
		bs.skillFlat = make([]float64, 0, ns)
	}
	fb, fs := bs.bundleFlat[:0], bs.skillFlat[:0]
	dst.Workers = dst.Workers[:0]
	dst.Skills = dst.Skills[:0]
	for i := range src.Workers {
		w := &src.Workers[i]
		lo := len(fb)
		fb = append(fb, w.Bundle...)
		dst.Workers = append(dst.Workers, Worker{ID: w.ID, Bundle: fb[lo:len(fb):len(fb)], Bid: w.Bid})
		lo = len(fs)
		fs = append(fs, src.Skills[i]...)
		dst.Skills = append(dst.Skills, fs[lo:len(fs):len(fs)])
	}
	bs.bundleFlat, bs.skillFlat = fb, fs
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
	cfg := config{rule: RuleGreedy}
	for _, opt := range opts {
		opt(&cfg)
	}
	a := &Auction{rule: cfg.rule, reg: cfg.telemetry, ev: cfg.events, cfg: cfg, bs: &buildState{}}
	if err := a.build(&inst); err != nil {
		return nil, err
	}
	return a, nil
}

// Rebuild reconstructs the auction in place over a new instance,
// reusing every build buffer — the CSR cover problem, the price/count
// tables, the winner-set arena, the prices and payment vectors — so
// round loops (internal/protocol, internal/shard) pay New's allocations
// once per partition instead of once per round. The construction
// options New was given (rule, explicit price set, parallelism,
// telemetry, event log) carry over, which in particular keeps a
// WithPriceSet support fixed across rounds exactly as the DP guarantee
// requires. The result is bitwise-identical to New(inst, sameOptions...).
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
	a.reg.Counter("mcs_core_rebuilds_total",
		"In-place auction reconstructions that reuse build buffers across rounds.").Inc()
	return nil
}

// build runs the full construction into the auction's reusable build
// state. On error the auction is left unusable (mech == nil).
func (a *Auction) build(src *Instance) error {
	if err := src.Validate(); err != nil {
		return err
	}
	reg := a.reg
	buildStart := reg.Now()
	a.mech = nil
	bs := a.bs
	cloneInto(&a.inst, src, bs)
	bs.cp.reset(&a.inst)
	for _, s := range bs.scratches {
		s.arena.reset()
	}
	n := len(a.inst.Workers)

	// Worker indices ascending by bid with index tie-break (Algorithm 1
	// line 1); the total-order comparator makes the unstable sort
	// reproduce the previous stable sort exactly.
	bs.sorted = bs.sorted[:0]
	for i := 0; i < n; i++ {
		bs.sorted = append(bs.sorted, i)
	}
	sort.Sort(&bidOrder{idx: bs.sorted, workers: a.inst.Workers})
	bs.bids = bs.bids[:0]
	for _, i := range bs.sorted {
		bs.bids = append(bs.bids, a.inst.Workers[i].Bid)
	}

	support := a.inst.PriceGrid
	if a.cfg.hasPriceSet {
		support = a.cfg.priceSet
		if err := validateSupport(support); err != nil {
			return err
		}
	}

	// Winner sets depend on the price only through the candidate count
	// (how many sorted bids are <= price), so compute once per distinct
	// count. This is the interval-sharing optimization of Algorithm 1
	// lines 14-15 that removes the dependency on |P|. Each count's
	// winner set is a pure function of the instance, so WithParallelism
	// can fan ranges of counts out across goroutines.
	if cap(bs.seenCount) < n+1 {
		bs.seenCount = make([]bool, n+1)
	} else {
		bs.seenCount = bs.seenCount[:n+1]
		for i := range bs.seenCount {
			bs.seenCount[i] = false
		}
	}
	bs.countOf = bs.countOf[:0]
	bs.distinct = bs.distinct[:0]
	for _, x := range support {
		count := sort.SearchFloat64s(bs.bids, x+priceEps)
		bs.countOf = append(bs.countOf, count)
		if !bs.seenCount[count] {
			bs.seenCount[count] = true
			bs.distinct = append(bs.distinct, count)
		}
	}
	if cap(bs.cache) < n+1 {
		bs.cache = make([]coverResult, n+1)
	} else {
		bs.cache = bs.cache[:n+1]
	}
	a.coverByCount()

	if cap(a.prices) < len(support) {
		a.prices = make([]PriceInfo, 0, len(support))
	} else {
		a.prices = a.prices[:0]
	}
	anyFeasible := false
	// Infeasible support prices carry the penalty payment pMax*N, the
	// worst payment any feasible price can reach over the support. With
	// an explicit price set the infeasible prices are the LOWEST ones
	// (feasibility is monotone in price), so a per-price penalty x*N
	// could undercut every feasible payment and the payment-minimizing
	// exponential mechanism would preferentially sample infeasible
	// outcomes; pinning the penalty to the support maximum keeps the
	// totality device maximally dispreferred. Sensitivity: with the
	// support inside the paper's cost set C subset [cmin, cmax], every
	// score stays in [0, cmax*N] and a single-bid change moves any
	// price's payment by at most N*cmax, so Theorem 2's 2*N*cmax
	// normalizer in PaymentLogWeights still covers the penalty.
	pMax := support[len(support)-1]
	for pi, x := range support {
		c := bs.cache[bs.countOf[pi]]
		info := PriceInfo{Price: x, Winners: c.winners, Feasible: c.feasible}
		if c.feasible {
			info.Payment = x * float64(len(c.winners))
			anyFeasible = true
		} else {
			info.Payment = pMax * float64(n)
		}
		a.prices = append(a.prices, info)
	}

	if !a.cfg.hasPriceSet {
		// Default support: the feasible subset of the grid, exactly the
		// paper's price set P. Filtered in place; the write index never
		// passes the read index.
		kept := a.prices[:0]
		for _, info := range a.prices {
			if info.Feasible {
				kept = append(kept, info)
			}
		}
		a.prices = kept
	}
	if len(a.prices) == 0 || (!anyFeasible && !a.cfg.hasPriceSet) {
		return ErrInfeasible
	}

	bs.payments = bs.payments[:0]
	for _, info := range a.prices {
		bs.payments = append(bs.payments, info.Payment)
	}
	logW := mechanism.PaymentLogWeights(bs.payments, a.inst.Epsilon, n, a.inst.CMax)
	mech, err := mechanism.NewExponential(logW)
	if err != nil {
		return fmt.Errorf("core: building exponential mechanism: %w", err)
	}
	a.mech = mech
	a.mech.Instrument(reg)
	a.mech.InstrumentEvents(a.ev)
	a.gainEvals = int(bs.cp.evals.Load())

	a.ev.Info("core.build",
		evlog.Int("workers", n),
		evlog.Int("tasks", a.inst.NumTasks),
		evlog.Int("support_size", len(a.prices)),
		evlog.Int("gain_evals", a.gainEvals),
		evlog.Float("eps", a.inst.Epsilon),
		evlog.String("rule", a.rule.String()),
		evlog.Bool("shared", false))

	reg.Counter("mcs_core_auctions_total", "DP-hSRC auctions constructed.").Inc()
	reg.Counter("mcs_core_gain_evals_total",
		"Marginal-gain evaluations performed by greedy winner-set construction.").Add(int64(a.gainEvals))
	reg.Histogram("mcs_core_support_size",
		"Candidate-price-set size per constructed auction.", telemetry.SizeBuckets).
		Observe(float64(len(a.prices)))
	reg.Histogram("mcs_core_build_seconds",
		"Full auction construction time (winner sets plus mechanism).", telemetry.TimeBuckets).
		Observe(reg.Since(buildStart))
	return nil
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
	nw := &Auction{inst: inst, rule: a.rule, prices: a.prices, reg: a.reg, ev: a.ev, gainEvals: a.gainEvals, cfg: a.cfg}
	logW := mechanism.PaymentLogWeights(nw.paymentVector(), eps, len(inst.Workers), inst.CMax)
	mech, err := mechanism.NewExponential(logW)
	if err != nil {
		return nil, fmt.Errorf("core: reweighting exponential mechanism: %w", err)
	}
	nw.mech = mech
	nw.mech.Instrument(a.reg)
	nw.mech.InstrumentEvents(a.ev)
	a.reg.Counter("mcs_core_reweights_total",
		"Mechanism-only rebuilds that reuse an auction's winner sets across a privacy-budget sweep.").Inc()
	// shared:true is the ledger's record that this sweep point reused
	// the receiver's winner sets instead of rebuilding them.
	a.ev.Info("core.reweight",
		evlog.Float("eps", eps),
		evlog.Int("support_size", len(nw.prices)),
		evlog.Bool("shared", true))
	return nw, nil
}

// coverResult caches the winner set for one candidate count.
type coverResult struct {
	winners  []int
	feasible bool
}

// coverByCount computes the winner set for every distinct candidate
// count into bs.cache, optionally in parallel. The distinct counts
// ascend with the support, so each count's candidates extend the
// previous count's, and coverRange warm-starts each RuleGreedy cover
// from its predecessor's trajectory. WithParallelism splits the counts
// into one contiguous range per goroutine, each chained on its own, so
// the work done — and GainEvaluations — is a pure function of the
// instance and the options, never of scheduling. Each goroutine owns
// one coverScratch, so the hot cover routines run allocation-free;
// retained winner slices are saved into the computing goroutine's
// arena. Per-count evaluation time lands in mcs_core_cover_seconds; the
// histogram is atomic, so the parallel path observes safely from every
// worker goroutine.
func (a *Auction) coverByCount() {
	bs := a.bs
	coverSeconds := a.reg.Histogram("mcs_core_cover_seconds",
		"Winner-set computation time per distinct candidate count.", telemetry.TimeBuckets)
	parallelism := a.cfg.parallelism
	if parallelism > len(bs.distinct) {
		parallelism = len(bs.distinct)
	}
	if parallelism < 2 {
		a.coverRange(bs.scratch(0), bs.distinct, coverSeconds)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		lo := w * len(bs.distinct) / parallelism
		hi := (w + 1) * len(bs.distinct) / parallelism
		wg.Add(1)
		go func(s *coverScratch, counts []int) {
			defer wg.Done()
			a.coverRange(s, counts, coverSeconds)
		}(bs.scratch(w), bs.distinct[lo:hi])
	}
	wg.Wait()
}

// coverRange computes the winner sets for the ascending candidate
// counts on one scratch. The feasibility sums extend from one count to
// the next. Under RuleGreedy each cover also warm-starts from the
// previous count's trajectory; that chain breaks at every count that
// fails cp.feasible (no trajectory is recorded there). Neither chain
// crosses a coverRange call, so a build or Rebuild always starts cold.
func (a *Auction) coverRange(s *coverScratch, counts []int, coverSeconds *telemetry.Histogram) {
	bs := a.bs
	cp := &bs.cp
	reg := a.reg
	summed, prev := 0, 0
	for _, count := range counts {
		start := reg.Now()
		cands := bs.sorted[:count]
		res := coverResult{}
		feasible := cp.feasibleFrom(s, cands, summed)
		summed = count
		if feasible {
			sel, feas := a.cover(cp, s, cands, prev)
			res = coverResult{winners: s.arena.save(sel), feasible: feas}
			if a.rule == RuleGreedy {
				prev = count
			}
		} else {
			prev = 0
		}
		bs.cache[count] = res
		coverSeconds.Observe(reg.Since(start))
		// Candidate counts and winner-set sizes are population-level;
		// under WithParallelism the emission order is scheduling-
		// dependent, which is fine for an observability stream.
		a.ev.Debug("core.cover",
			evlog.Int("candidates", count),
			evlog.Int("winners", len(res.winners)),
			evlog.Bool("feasible", res.feasible))
	}
}

// cover dispatches to the configured selection rule; prev is the
// predecessor count RuleGreedy warm-starts from (0 for a cold cover)
// and is ignored by the other rules. The returned slice aliases s and
// must be persisted via s.arena before s is reused.
func (a *Auction) cover(cp *coverProblem, s *coverScratch, cands []int, prev int) ([]int, bool) {
	switch a.rule {
	case RuleGreedyNaive:
		return cp.greedyCoverNaive(s, cands)
	case RuleStatic:
		return cp.staticCover(s, cands)
	default:
		return cp.greedyCoverFrom(s, cands, prev)
	}
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

func validateSupport(p []float64) error {
	if len(p) == 0 {
		return ErrEmptySupport
	}
	prev := -1.0
	for _, x := range p {
		if x <= prev || x <= 0 {
			return fmt.Errorf("%w: support value %v after %v", ErrBadPriceGrid, x, prev)
		}
		prev = x
	}
	return nil
}

// Run samples a clearing price from the exponential mechanism
// (Algorithm 1 line 16) and returns the corresponding outcome.
func (a *Auction) Run(r *rand.Rand) Outcome {
	idx := a.mech.Sample(r)
	return a.outcomeAt(idx)
}

// outcomeAt materializes the outcome for support index idx.
func (a *Auction) outcomeAt(idx int) Outcome {
	info := a.prices[idx]
	winners := append([]int(nil), info.Winners...)
	return Outcome{
		Price:        info.Price,
		Winners:      winners,
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
func (a *Auction) Rule() SelectionRule { return a.rule }

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
