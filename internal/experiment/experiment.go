// Package experiment regenerates every table and figure of the paper's
// evaluation (Section VII): the payment sweeps of Figures 1-4, the
// execution-time comparison of Table II, and the payment-privacy
// trade-off of Figure 5. Each runner returns plottable series plus
// notes recording any deviation (e.g. exact-solver budgets), and the
// cmd/dphsrc-bench binary writes them as CSV and SVG.
package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/ilp"
	"github.com/dphsrc/dphsrc/internal/plot"
	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// ErrNoFeasibleInstance reports that instance generation kept producing
// infeasible auctions for a sweep point.
var ErrNoFeasibleInstance = errors.New("experiment: could not generate a feasible instance")

// Config controls how the experiment runners execute.
type Config struct {
	// Seed roots all randomness; every runner is deterministic given
	// Seed.
	Seed int64
	// Samples, when positive, estimates payment statistics by
	// Monte-Carlo sampling that many prices (the paper samples 10000).
	// When zero, the exact mean and standard deviation are computed
	// from the mechanism's closed-form PMF, which is equivalent and
	// faster.
	Samples int
	// Instances is how many instances are averaged per sweep point;
	// defaults to 1 (as in the paper, whose curves are explicitly
	// non-smooth due to single-instance randomness).
	Instances int
	// OptimalBudget caps each exact TPM solve; the full per-instance
	// R_OPT computation is additionally capped at 4x this value. When a
	// budget expires the greedy/LP-guided incumbent is reported and the
	// figure notes record it. Zero means a default of 5s.
	OptimalBudget time.Duration
	// Scale multiplies worker and task counts of the paper settings;
	// 1.0 reproduces Table I exactly. Smaller scales keep the exact
	// "Optimal" baseline provable on modest hardware (the paper's
	// GUROBI runs took up to 6139 s).
	Scale float64
	// Parallelism is the runners' single concurrency budget: it bounds
	// the worker pool that sweep points, per-point instances and the
	// per-profile constructions of Figure 5 fan out on. Every auction
	// construction itself runs sequentially, so the pool is the only
	// owner of the budget (see DESIGN.md "Hot path & scratch memory").
	// Results are byte-identical to sequential execution: every job's
	// randomness is pre-derived from Seed in the sequential order and
	// aggregation happens in index order. Zero means GOMAXPROCS; 1
	// forces the sequential path.
	Parallelism int
	// Telemetry, when non-nil, instruments the measured auction
	// constructions (mcs_core_*): the payment sweeps count exactly one
	// auction per sweep-point instance per selection rule, and the
	// epsilon sweep counts its per-profile constructions and reweights.
	// Feasibility probing that discards the auction (Figure 5, Table II)
	// stays uninstrumented so the counters reflect the measured builds.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the run's structured event stream:
	// sweep.start / sweep.progress (with an ETA extrapolated from the
	// worker pool's completion rate) / sweep.complete per runner, plus
	// the core.build / core.reweight events of the measured auction
	// constructions. Nil disables event logging at zero cost. Under
	// Parallelism > 1 the progress events interleave in scheduling
	// order; the figure data stays byte-identical regardless.
	Events *evlog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Instances <= 0 {
		c.Instances = 1
	}
	if c.OptimalBudget <= 0 {
		c.OptimalBudget = 5 * time.Second
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// progressTracker emits the sweep lifecycle events for one runner:
// sweep.start when the pool is about to fan out, sweep.progress after
// every completed job (carrying an ETA extrapolated from the pool's
// completion rate so far), and sweep.complete at the end. All methods
// are safe from pool goroutines; with a nil event log everything
// degrades to nops.
type progressTracker struct {
	ev        *evlog.Logger
	id        string
	total     int64
	start     time.Time
	completed atomic.Int64
}

// startProgress announces the sweep and returns its tracker.
func startProgress(ev *evlog.Logger, id string, totalJobs int) *progressTracker {
	pt := &progressTracker{ev: ev, id: id, total: int64(totalJobs), start: ev.Now()}
	ev.Info("sweep.start", evlog.String("figure", id), evlog.Int("jobs", totalJobs))
	return pt
}

// jobDone records one finished pool job.
func (pt *progressTracker) jobDone() {
	n := pt.completed.Add(1)
	if pt.ev == nil {
		return
	}
	elapsed := pt.ev.Now().Sub(pt.start).Seconds()
	eta := 0.0
	if n < pt.total {
		eta = elapsed / float64(n) * float64(pt.total-n)
	}
	pt.ev.Debug("sweep.progress",
		evlog.String("figure", pt.id),
		evlog.Int64("completed", n),
		evlog.Int64("total", pt.total),
		evlog.Float("elapsed_seconds", elapsed),
		evlog.Float("eta_seconds", eta))
}

// done announces sweep completion.
func (pt *progressTracker) done() {
	pt.ev.Info("sweep.complete",
		evlog.String("figure", pt.id),
		evlog.Int64("jobs", pt.completed.Load()),
		evlog.Seconds("elapsed", pt.ev.Now().Sub(pt.start)))
}

// FigureResult is the data behind one reproduced figure.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []plot.Series
	// LogX marks figures with a logarithmic x axis (Figure 5).
	LogX bool
	// Notes record methodological details (budgets hit, scales used).
	Notes []string
}

// Chart converts the result to a renderable chart.
func (f FigureResult) Chart() plot.Chart {
	return plot.Chart{
		Title:  f.Title,
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		Series: f.Series,
		LogX:   f.LogX,
	}
}

// paymentStats returns the mean and standard deviation of the total
// payment under the auction's output distribution, either exactly from
// the PMF or by Monte-Carlo sampling per cfg.
func paymentStats(a *core.Auction, cfg Config, r *rand.Rand) (mean, std float64) {
	if cfg.Samples > 0 {
		var acc stats.Accumulator
		for s := 0; s < cfg.Samples; s++ {
			acc.Add(a.Run(r).TotalPayment)
		}
		return acc.Mean(), acc.StdDev()
	}
	pmf := a.PMF()
	support := a.Support()
	m, m2 := 0.0, 0.0
	for i, info := range support {
		m += pmf[i] * info.Payment
		m2 += pmf[i] * info.Payment * info.Payment
	}
	v := m2 - m*m
	if v < 0 {
		v = 0
	}
	return m, math.Sqrt(v)
}

// generateFeasible draws instances until one admits a feasible auction
// built with opts, up to a retry cap. The successful auction is returned
// along with its construction wall-clock time, so callers measuring
// build cost (Figures 1-4, Table II) reuse it instead of constructing
// the same auction a second time. Callers pass telemetry and an event
// log only when the returned auction is the measured one rather than a
// discarded probe.
func generateFeasible(p workload.Params, r *rand.Rand, opts ...core.Option) (core.Instance, *core.Auction, time.Duration, error) {
	for attempt := 0; attempt < 20; attempt++ {
		inst, err := p.Generate(r)
		if err != nil {
			return core.Instance{}, nil, 0, err
		}
		start := time.Now()
		a, err := core.New(inst, opts...)
		if err == nil {
			return inst, a, time.Since(start), nil
		}
		if !errors.Is(err, core.ErrInfeasible) {
			return core.Instance{}, nil, 0, err
		}
	}
	return core.Instance{}, nil, 0, fmt.Errorf("%w: N=%d K=%d", ErrNoFeasibleInstance, p.N, p.K)
}

// instanceResult is the outcome of one (sweep point, instance) job: the
// independent unit of work a payment sweep fans out on the pool.
type instanceResult struct {
	dpMean, dpStd     float64
	baseMean, baseStd float64
	optPayment        float64
	optProven         bool
	optElapsed        time.Duration
	dpElapsed         time.Duration
	err               error
}

// runSweepInstance evaluates DP-hSRC, the baseline, and optionally the
// exact optimum on one fresh instance of the family. The job is a pure
// function of (params, cfg, seed), so the pool can run jobs in any
// order and still reproduce the sequential sweep exactly.
func runSweepInstance(p workload.Params, withOptimal bool, cfg Config, seed int64) instanceResult {
	var res instanceResult
	r := rand.New(rand.NewSource(seed))
	// The feasibility-probe build IS the measured DP auction: timed,
	// instrumented, and reused — the old code built it a second time
	// "to time construction alone" and paid twice per sweep point.
	inst, dpAuction, buildTime, err := generateFeasible(p, r,
		core.WithTelemetry(cfg.Telemetry), core.WithEventLog(cfg.Events))
	if err != nil {
		res.err = err
		return res
	}
	res.dpElapsed = buildTime

	res.dpMean, res.dpStd = paymentStats(dpAuction, cfg, r)

	baseAuction, err := core.New(inst, core.WithRule(core.RuleStatic),
		core.WithTelemetry(cfg.Telemetry), core.WithEventLog(cfg.Events))
	if err != nil {
		res.err = err
		return res
	}
	res.baseMean, res.baseStd = paymentStats(baseAuction, cfg, r)

	if withOptimal {
		opt, err := ilp.Optimal(inst, ilp.Options{TimeBudget: cfg.OptimalBudget, TotalBudget: 4 * cfg.OptimalBudget})
		if err != nil {
			res.err = err
			return res
		}
		if !opt.Feasible {
			res.err = fmt.Errorf("%w: optimal solver disagrees on feasibility", ErrNoFeasibleInstance)
			return res
		}
		res.optPayment = opt.TotalPayment
		res.optProven = opt.Proven
		res.optElapsed = opt.Elapsed
	}
	return res
}

// paymentSweep runs a full figure sweep over the given x values,
// fanning the (point, instance) jobs out on a bounded pool of
// cfg.Parallelism workers. Seeds are pre-derived from cfg.Seed in the
// sequential (point, instance) order and aggregation walks the same
// order, so the result is byte-identical to the sequential sweep.
func paymentSweep(id, title, xlabel string, xs []int, family func(int) workload.Params, withOptimal bool, cfg Config) (FigureResult, error) {
	cfg = cfg.withDefaults()
	seeder := stats.NewSeeder(cfg.Seed)
	params := make([]workload.Params, len(xs))
	seeds := make([]int64, len(xs)*cfg.Instances)
	for pi := range xs {
		params[pi] = family(xs[pi]).Scaled(cfg.Scale)
		for k := 0; k < cfg.Instances; k++ {
			seeds[pi*cfg.Instances+k] = seeder.Next()
		}
	}
	results := make([]instanceResult, len(seeds))
	pt := startProgress(cfg.Events, id, len(seeds))
	runIndexed(len(seeds), cfg.Parallelism, func(i int) {
		results[i] = runSweepInstance(params[i/cfg.Instances], withOptimal, cfg, seeds[i])
		pt.jobDone()
	})
	pt.done()

	var (
		dp, base, opt plot.Series
		notes         []string
	)
	dp.Name, base.Name, opt.Name = "DP-hSRC Auction", "Baseline Auction", "Optimal"
	unproven := 0
	for pi, x := range xs {
		var dpAcc, dpStdAcc, baseAcc, baseStdAcc, optAcc stats.Accumulator
		optProven := true
		for k := 0; k < cfg.Instances; k++ {
			res := results[pi*cfg.Instances+k]
			if res.err != nil {
				return FigureResult{}, fmt.Errorf("experiment %s at x=%d: %w", id, x, res.err)
			}
			dpAcc.Add(res.dpMean)
			dpStdAcc.Add(res.dpStd)
			baseAcc.Add(res.baseMean)
			baseStdAcc.Add(res.baseStd)
			if withOptimal {
				optAcc.Add(res.optPayment)
				optProven = optProven && res.optProven
			}
		}
		dp.X = append(dp.X, float64(x))
		dp.Y = append(dp.Y, dpAcc.Mean())
		dp.YErr = append(dp.YErr, dpStdAcc.Mean())
		base.X = append(base.X, float64(x))
		base.Y = append(base.Y, baseAcc.Mean())
		base.YErr = append(base.YErr, baseStdAcc.Mean())
		if withOptimal {
			opt.X = append(opt.X, float64(x))
			opt.Y = append(opt.Y, optAcc.Mean())
			if !optProven {
				unproven++
			}
		}
	}
	series := []plot.Series{}
	if withOptimal {
		series = append(series, opt)
		if unproven > 0 {
			notes = append(notes, fmt.Sprintf("%d/%d optimal points hit the %v solve budget; incumbent shown (upper bound on R_OPT)", unproven, len(xs), cfg.OptimalBudget))
		}
	}
	series = append(series, dp, base)
	if cfg.Scale != 1 {
		notes = append(notes, fmt.Sprintf("instance sizes scaled by %.3g relative to Table I", cfg.Scale))
	}
	if cfg.Samples > 0 {
		notes = append(notes, fmt.Sprintf("payment statistics from %d Monte-Carlo price samples per point", cfg.Samples))
	} else {
		notes = append(notes, "payment statistics computed exactly from the mechanism PMF (equivalent to the paper's 10000-sample estimate)")
	}
	return FigureResult{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		YLabel: "Platform's Total Payment",
		Series: series,
		Notes:  notes,
	}, nil
}

// Figure1 reproduces Figure 1: total payment vs number of workers under
// Setting I, comparing Optimal, DP-hSRC and the baseline auction.
func Figure1(cfg Config) (FigureResult, error) {
	xs := rangeInts(80, 140, 5)
	return paymentSweep("fig1", "Platform's total payment under Setting I", "Number of Workers",
		xs, workload.SettingI, true, cfg)
}

// Figure2 reproduces Figure 2: total payment vs number of tasks under
// Setting II.
func Figure2(cfg Config) (FigureResult, error) {
	xs := rangeInts(20, 50, 2)
	return paymentSweep("fig2", "Platform's total payment under Setting II", "Number of Tasks",
		xs, workload.SettingII, true, cfg)
}

// Figure3 reproduces Figure 3: total payment vs number of workers under
// Setting III (no exact optimum; the problem sizes make it infeasible,
// exactly as the paper reports for GUROBI).
func Figure3(cfg Config) (FigureResult, error) {
	xs := rangeInts(800, 1400, 50)
	return paymentSweep("fig3", "Platform's total payment under Setting III", "Number of Workers",
		xs, workload.SettingIII, false, cfg)
}

// Figure4 reproduces Figure 4: total payment vs number of tasks under
// Setting IV.
func Figure4(cfg Config) (FigureResult, error) {
	xs := rangeInts(200, 500, 20)
	return paymentSweep("fig4", "Platform's total payment under Setting IV", "Number of Tasks",
		xs, workload.SettingIV, false, cfg)
}

// rangeInts returns lo, lo+step, ..., <= hi.
func rangeInts(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}
