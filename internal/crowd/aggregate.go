package crowd

import "fmt"

// WeightedAggregate computes the aggregated label of every task with
// the rule of Lemma 1: l_hat_j = sign(sum_i (2*theta_ij - 1) * l_ij).
// Tasks with no reports (or an exactly zero weighted sum) come back
// Unlabeled so callers can distinguish "no information" from a
// confident label.
func WeightedAggregate(reports []Report, skills [][]float64, numTasks int) ([]Label, error) {
	sums := make([]float64, numTasks)
	for _, rep := range reports {
		if rep.Task < 0 || rep.Task >= numTasks {
			return nil, fmt.Errorf("%w: report for task %d of %d", ErrShape, rep.Task, numTasks)
		}
		if rep.Worker < 0 || rep.Worker >= len(skills) {
			return nil, fmt.Errorf("%w: report from worker %d of %d", ErrShape, rep.Worker, len(skills))
		}
		if rep.Task >= len(skills[rep.Worker]) {
			return nil, fmt.Errorf("%w: report for task %d from worker %d, whose skill row has %d tasks",
				ErrShape, rep.Task, rep.Worker, len(skills[rep.Worker]))
		}
		weight := 2*skills[rep.Worker][rep.Task] - 1
		sums[rep.Task] += weight * float64(rep.Label)
	}
	return signs(sums), nil
}

// MajorityVote aggregates with uniform weights, the natural non-skill-
// aware baseline for Lemma 1's weighted rule.
func MajorityVote(reports []Report, numTasks int) ([]Label, error) {
	sums := make([]float64, numTasks)
	for _, rep := range reports {
		if rep.Task < 0 || rep.Task >= numTasks {
			return nil, fmt.Errorf("%w: report for task %d of %d", ErrShape, rep.Task, numTasks)
		}
		sums[rep.Task] += float64(rep.Label)
	}
	return signs(sums), nil
}

// signs maps weighted sums to labels, leaving exact zeros Unlabeled.
func signs(sums []float64) []Label {
	out := make([]Label, len(sums))
	for j, s := range sums {
		switch {
		case s > 0:
			out[j] = Positive
		case s < 0:
			out[j] = Negative
		}
	}
	return out
}
