// Package privacy models the adversary the paper defends against: an
// honest-but-curious worker who observes auction outcomes (clearing
// prices / payment profiles) across rounds and tries to infer another
// worker's bid. It provides the Bayes-optimal distinguisher between two
// candidate bids, its exact and simulated advantage, and the caps that
// epsilon-differential privacy places on that advantage under k-fold
// composition.
package privacy

import (
	"errors"
	"math"
	"math/rand"

	"github.com/dphsrc/dphsrc/internal/stats"
)

// Errors returned by the adversary analysis.
var (
	ErrSupportMismatch = errors.New("privacy: hypothesis distributions differ in support size")
	ErrBadArgument     = errors.New("privacy: invalid argument")
)

// Distinguisher is the Bayes-optimal attacker deciding between two
// hypotheses about a victim's bid, given the exact output PMFs the two
// bids induce over the (shared) price support. With uniform prior its
// decision rule is the likelihood-ratio test.
type Distinguisher struct {
	logP []float64 // log-PMF under hypothesis A
	logQ []float64 // log-PMF under hypothesis B
}

// NewDistinguisher builds the attacker from the two hypothesis PMFs.
func NewDistinguisher(pmfA, pmfB []float64) (*Distinguisher, error) {
	if len(pmfA) != len(pmfB) {
		return nil, ErrSupportMismatch
	}
	if err := stats.ValidatePMF(pmfA); err != nil {
		return nil, err
	}
	if err := stats.ValidatePMF(pmfB); err != nil {
		return nil, err
	}
	d := &Distinguisher{
		logP: make([]float64, len(pmfA)),
		logQ: make([]float64, len(pmfB)),
	}
	for i := range pmfA {
		d.logP[i] = safeLog(pmfA[i])
		d.logQ[i] = safeLog(pmfB[i])
	}
	return d, nil
}

// safeLog maps 0 to -Inf without a math domain error surprise.
func safeLog(x float64) float64 {
	if x == 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}

// GuessA reports whether the attacker attributes the observed outcome
// indices to hypothesis A (log-likelihood-ratio test with uniform
// prior; ties go to A).
func (d *Distinguisher) GuessA(observations []int) bool {
	llr := 0.0
	for _, o := range observations {
		llr += d.logP[o] - d.logQ[o]
	}
	return llr >= 0
}

// ExactAdvantage returns the attacker's advantage over random guessing
// after exactly one observation, which for the Bayes-optimal test
// equals half the total-variation distance between the hypotheses.
func (d *Distinguisher) ExactAdvantage() float64 {
	adv := 0.0
	for i := range d.logP {
		p := math.Exp(d.logP[i])
		q := math.Exp(d.logQ[i])
		adv += math.Abs(p - q)
	}
	return adv / 4 // TV/2 = (1/2)*(1/2)*sum|p-q|
}

// SimulateAdvantage estimates the attacker's advantage when it sees
// `perRound` outcomes before guessing, over `trials` independent games
// with a uniformly random true hypothesis. The exact multi-observation
// advantage is a sum over |support|^perRound atoms; simulation keeps it
// tractable.
func (d *Distinguisher) SimulateAdvantage(perRound, trials int, r *rand.Rand) (float64, error) {
	if perRound <= 0 || trials <= 0 {
		return 0, ErrBadArgument
	}
	pmfA := expVec(d.logP)
	pmfB := expVec(d.logQ)
	correct := 0
	obs := make([]int, perRound)
	for t := 0; t < trials; t++ {
		truthA := r.Intn(2) == 0
		src := pmfB
		if truthA {
			src = pmfA
		}
		for k := range obs {
			obs[k] = samplePMF(src, r)
		}
		if d.GuessA(obs) == truthA {
			correct++
		}
	}
	return float64(correct)/float64(trials) - 0.5, nil
}

// expVec exponentiates a log-PMF back to a PMF.
func expVec(logs []float64) []float64 {
	out := make([]float64, len(logs))
	for i, l := range logs {
		out[i] = math.Exp(l)
	}
	return out
}

// samplePMF draws one index by inverse transform.
func samplePMF(pmf []float64, r *rand.Rand) int {
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

// AdvantageBound returns the maximum advantage of ANY single-
// observation attacker against an epsilon-DP mechanism:
// TV/2 <= (e^eps - 1) / (2*(e^eps + 1)).
func AdvantageBound(eps float64) float64 {
	if eps <= 0 {
		return 0
	}
	e := math.Exp(eps)
	return (e - 1) / (2 * (e + 1))
}

// RoundsToDistinguish returns how many repeated observations an
// attacker needs before the composed advantage bound reaches the given
// target advantage in (0, 1/2): the smallest k with
// AdvantageBound(k*eps) >= target. It quantifies the privacy half-life
// of a repeated auction.
func RoundsToDistinguish(eps, target float64) (int, error) {
	if eps <= 0 || target <= 0 || target >= 0.5 {
		return 0, ErrBadArgument
	}
	// AdvantageBound(x) = target  <=>  e^x = (1+2t)/(1-2t).
	x := math.Log((1 + 2*target) / (1 - 2*target))
	k := int(math.Ceil(x / eps))
	if k < 1 {
		k = 1
	}
	return k, nil
}
