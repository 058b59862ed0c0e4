package core

import (
	"errors"
	"fmt"
)

// Verification errors returned by VerifyOutcome.
var (
	ErrOutcomeCoverage = errors.New("core: outcome violates a task's error-bound constraint")
	ErrOutcomeIR       = errors.New("core: outcome violates individual rationality")
	ErrOutcomeWinner   = errors.New("core: outcome winner index invalid")
	ErrOutcomePayment  = errors.New("core: outcome payment inconsistent")
)

// VerifyOutcome checks that an auction outcome is well-formed for the
// instance: winner indices are valid and unique, every winner bid at
// most the clearing price (individual rationality under truthful
// bidding, Theorem 4), the winner set satisfies every task's
// error-bound constraint (Lemma 1), and the total payment equals
// price times the number of winners.
//
// An outcome flagged infeasible (possible only under an explicitly
// fixed price support) must name no winners, and its price must be
// infeasible by the definition New and Draw use: the workers bidding at
// most that price, taken together, fall short of some task's demand.
// Its payment is the support's penalty, pMax*N, which depends on the
// rest of the support and is not checked here.
//
// It is intended as a trust-but-verify hook for protocol endpoints and
// simulations: anything the mechanism emits must pass it.
func VerifyOutcome(inst Instance, o Outcome) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(o.Winners))
	for _, w := range o.Winners {
		if w < 0 || w >= len(inst.Workers) {
			return fmt.Errorf("%w: %d of %d workers", ErrOutcomeWinner, w, len(inst.Workers))
		}
		if seen[w] {
			return fmt.Errorf("%w: duplicate winner %d", ErrOutcomeWinner, w)
		}
		seen[w] = true
		if inst.Workers[w].Bid > o.Price+priceEps {
			return fmt.Errorf("%w: winner %d bid %v above price %v", ErrOutcomeIR, w, inst.Workers[w].Bid, o.Price)
		}
	}
	if !o.Feasible {
		return verifyInfeasible(&inst, o)
	}
	for j := 0; j < inst.NumTasks; j++ {
		sum := 0.0
		for _, w := range o.Winners {
			sum += inst.Quality(w, j)
		}
		if sum < inst.Demand(j)-1e-6 {
			return fmt.Errorf("%w: task %d has coverage %v < %v", ErrOutcomeCoverage, j, sum, inst.Demand(j))
		}
	}
	want := o.Price * float64(len(o.Winners))
	if diff := o.TotalPayment - want; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("%w: total %v != price*|S| %v", ErrOutcomePayment, o.TotalPayment, want)
	}
	return nil
}

// verifyInfeasible checks an outcome flagged infeasible: it has no
// winners, and the preparation pass over o.Price as a one-price support
// finds that price's candidate count below the feasibility floor.
func verifyInfeasible(inst *Instance, o Outcome) error {
	if len(o.Winners) > 0 {
		return fmt.Errorf("%w: an infeasible outcome names %d winners", ErrOutcomeWinner, len(o.Winners))
	}
	var p prepared
	cfg := config{priceSet: []float64{o.Price}, hasPriceSet: true}
	if err := p.prepare(inst, &cfg, &coverScratch{}); err != nil {
		return err
	}
	if p.countOf[0] >= p.floor {
		return fmt.Errorf("%w: outcome flagged infeasible at price %v, where its %d candidates cover every task",
			ErrOutcomeCoverage, o.Price, p.countOf[0])
	}
	return nil
}
