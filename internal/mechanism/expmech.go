// Package mechanism implements the differential-privacy primitives used
// by the DP-hSRC auction: the exponential mechanism of McSherry and
// Talwar (FOCS 2007) in numerically robust log-space form, exact
// probability-mass-function computation for analysis, and the
// KL-divergence privacy-leakage meter of the paper's Definition 8.
package mechanism

import (
	"errors"
	"math"
	"math/rand"

	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// ErrEmptySupport reports that a mechanism was asked to choose from an
// empty candidate set.
var ErrEmptySupport = errors.New("mechanism: empty support")

// ErrBadScore reports a non-finite score, which would corrupt the
// output distribution silently.
var ErrBadScore = errors.New("mechanism: score is NaN or infinite")

// Exponential is an instance of the exponential mechanism over a finite
// support. The probability of selecting index i is proportional to
// exp(LogWeights[i]); callers encode the privacy budget, sensitivity
// and score into the log-weight (for DP-hSRC the log-weight of price x
// is -eps * x*|S(x)| / (2*N*cmax)).
type Exponential struct {
	logWeights []float64
	// maxLW is cached so PMF and Sample can shift into a numerically
	// safe range without rescanning.
	maxLW float64
	// Telemetry handles; nil (the default) makes every record a no-op,
	// keeping Sample allocation-free. Set via Instrument before the
	// mechanism is shared across goroutines.
	reg        *telemetry.Registry
	samples    *telemetry.Counter
	pmfSeconds *telemetry.Histogram
	// ev receives one mechanism.sample event per draw; nil no-ops. The
	// drawn index is the mechanism's DP output, so logging it is a
	// sanctioned release.
	ev *evlog.Logger
}

// Instrument attaches the mechanism to a telemetry registry: price
// draws count into mcs_mechanism_samples_total and exact PMF
// computations time into mcs_mechanism_pmf_seconds (against the
// registry's injected clock, so the package stays wall-clock-free).
// Call before the mechanism is shared; a nil registry is the nop.
func (e *Exponential) Instrument(reg *telemetry.Registry) {
	e.reg = reg
	e.samples = reg.Counter("mcs_mechanism_samples_total",
		"Exponential-mechanism price draws (Gumbel-max).")
	e.pmfSeconds = reg.Histogram("mcs_mechanism_pmf_seconds",
		"Exact PMF computation time.", telemetry.TimeBuckets)
}

// InstrumentEvents attaches an event log: every Sample emits one
// debug-level mechanism.sample event carrying the drawn support index
// (the DP output — never the weights, which are bid-derived). Call
// before the mechanism is shared; a nil logger is the nop.
func (e *Exponential) InstrumentEvents(lg *evlog.Logger) {
	e.ev = lg
}

// NewExponential builds a mechanism from the given log-weights. The
// slice is copied. It returns an error if the support is empty or any
// weight is non-finite.
func NewExponential(logWeights []float64) (*Exponential, error) {
	if len(logWeights) == 0 {
		return nil, ErrEmptySupport
	}
	cp := make([]float64, len(logWeights))
	maxLW := math.Inf(-1)
	for i, lw := range logWeights {
		if math.IsNaN(lw) || math.IsInf(lw, 0) {
			return nil, ErrBadScore
		}
		cp[i] = lw
		if lw > maxLW {
			maxLW = lw
		}
	}
	return &Exponential{logWeights: cp, maxLW: maxLW}, nil
}

// Len returns the support size.
func (e *Exponential) Len() int { return len(e.logWeights) }

// PMF returns the exact probability mass function of the mechanism,
// computed with a max-shift so that it is well defined even when the
// raw weights exp(logWeight) underflow float64.
func (e *Exponential) PMF() []float64 {
	start := e.reg.Now()
	pmf := make([]float64, len(e.logWeights))
	sum := 0.0
	for i, lw := range e.logWeights {
		w := math.Exp(lw - e.maxLW)
		pmf[i] = w
		sum += w
	}
	for i := range pmf {
		pmf[i] /= sum
	}
	e.pmfSeconds.Observe(e.reg.Since(start))
	return pmf
}

// Sample draws one index from the mechanism's distribution using the
// Gumbel-max trick: argmax_i (logWeight_i + Gumbel_i) is distributed as
// softmax(logWeights). This avoids computing the normalizer entirely
// and is immune to under/overflow.
func (e *Exponential) Sample(r *rand.Rand) int {
	best := 0
	bestVal := math.Inf(-1)
	for i, lw := range e.logWeights {
		v := lw + stats.Gumbel(r)
		if v > bestVal {
			bestVal = v
			best = i
		}
	}
	e.samples.Inc()
	e.ev.Debug("mechanism.sample",
		evlog.Int("index", best),
		evlog.Int("support_size", len(e.logWeights)))
	return best
}

// SampleInverse draws one index by inverse-transform sampling on the
// exact PMF. It is slower than Sample and exists to cross-validate the
// Gumbel-max path in tests and ablations.
func (e *Exponential) SampleInverse(r *rand.Rand) int {
	pmf := e.PMF()
	u := r.Float64()
	acc := 0.0
	for i, p := range pmf {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(pmf) - 1
}

// ExpectedScore returns sum_i pmf_i * score_i for an arbitrary
// per-index score vector, e.g. the platform's total payment at each
// candidate price. It panics if the score length mismatches the
// support, which is a programmer error.
func (e *Exponential) ExpectedScore(score []float64) float64 {
	if len(score) != len(e.logWeights) {
		panic("mechanism: score length mismatch")
	}
	pmf := e.PMF()
	out := 0.0
	for i, p := range pmf {
		out += p * score[i]
	}
	return out
}

// PaymentLogWeights computes the DP-hSRC log-weights for a slice of
// candidate total payments, each by PaymentLogWeight.
func PaymentLogWeights(payments []float64, eps float64, n int, cmax float64) []float64 {
	lw := make([]float64, len(payments))
	for i, pay := range payments {
		lw[i] = PaymentLogWeight(pay, eps, n, cmax)
	}
	return lw
}

// PaymentLogWeight is the DP-hSRC log-weight of one candidate total
// payment, -eps * payment / (2*N*cmax): Equation 10 of the paper with
// payment = x*|S(x)|. It is <= 0 for every payment >= 0, which is what
// LazyExponential needs.
func PaymentLogWeight(payment, eps float64, n int, cmax float64) float64 {
	return -eps * payment / (2 * float64(n) * cmax)
}
