package core

import (
	"math/rand"

	"github.com/dphsrc/dphsrc/internal/mechanism"
)

// Drawer releases one clearing price per prepared instance without
// building every winner set first. Draw returns exactly the outcome
// New(inst, opts...).Run(r) returns, bit for bit, under the default
// support and under WithPriceSet: the same price, winners, payment and
// Feasible flag, with r left in the same state. It gets there by
// drawing the exponential mechanism's Gumbels first
// (mechanism.LazyExponential) and computing a winner set only for the
// prices the draw can still pick, usually one.
//
// A Drawer reuses its buffers from one Prepare to the next and is not
// safe for concurrent use.
type Drawer struct {
	cfg config
	p   prepared
	s   coverScratch
	// covers caches the current draw's winner sets by candidate count.
	covers []countCover
	mech   mechanism.LazyExponential
	// prepSeconds is the latest Prepare's duration; the draw that
	// follows it reports the two together as one build.
	prepSeconds float64
	ready       bool
}

// countCover is one candidate count's winner set.
type countCover struct {
	count   int
	winners []int
}

// NewDrawer returns a Drawer configured by New's options: the selection
// rule, an explicit price set, telemetry and the event log.
func NewDrawer(opts ...Option) *Drawer {
	d := &Drawer{cfg: newConfig(opts)}
	d.mech.Instrument(d.cfg.telemetry, d.cfg.events)
	return d
}

// Prepare validates inst and runs the preparation pass New runs: the
// private instance copy, the cover problem, the bid order, the support
// and its feasibility floor. It returns the error New(inst, opts...)
// would, ErrInfeasible when the default support holds no feasible
// price. Until a Prepare succeeds, Draw panics.
func (d *Drawer) Prepare(inst Instance) error {
	reg := d.cfg.telemetry
	start := reg.Now()
	d.ready = false
	if err := d.p.prepare(&inst, &d.cfg, &d.s); err != nil {
		return err
	}
	d.ready = true
	d.prepSeconds = reg.Since(start)
	return nil
}

// Draw samples the clearing price for the prepared instance and
// returns its outcome (Algorithm 1 line 16). It covers a candidate
// count only when the mechanism asks for that price's log-weight, cold
// and once per draw. How many covers a draw makes depends on the bids,
// as the all-counts build's time did; the released outcome and its
// distribution are New's. Each draw reports one construction
// (core.build, mcs_core_*), timed together with the Prepare before it.
func (d *Drawer) Draw(r *rand.Rand) Outcome {
	if !d.ready {
		panic("core: Draw without a successful Prepare")
	}
	reg := d.cfg.telemetry
	start := reg.Now()
	d.s.arena.reset()
	d.s.evals = 0
	d.covers = d.covers[:0]
	out := d.info(d.mech.Sample(r, len(d.p.support), d.logWeight)).outcome()
	reportBuild(reg, d.cfg.events, d.cfg.rule, &d.p.inst, len(d.p.support), d.s.evals, d.prepSeconds+reg.Since(start))
	d.prepSeconds = 0
	return out
}

// logWeight is support price k's Eq. 10 log-weight, from the same
// helper New's mechanism uses.
func (d *Drawer) logWeight(k int) float64 {
	inst := &d.p.inst
	return mechanism.PaymentLogWeight(d.info(k).Payment, inst.Epsilon, len(inst.Workers), inst.CMax)
}

// info is support price k's entry, covering its candidate count the
// first time this draw needs it.
func (d *Drawer) info(k int) PriceInfo {
	count := d.p.countOf[k]
	if count < d.p.floor {
		return d.p.priceInfo(k, nil)
	}
	for _, c := range d.covers {
		if c.count == count {
			return d.p.priceInfo(k, c.winners)
		}
	}
	reg := d.cfg.telemetry
	start := reg.Now()
	winners := d.s.arena.save(d.p.cp.cover(d.cfg.rule, &d.s, d.p.sorted[:count], 0))
	d.covers = append(d.covers, countCover{count: count, winners: winners})
	coverSeconds(reg).Observe(reg.Since(start))
	coverEvent(d.cfg.events, count, winners, true)
	return d.p.priceInfo(k, winners)
}
