package crowd

import (
	"fmt"
	"math"
)

// EMOptions configures EstimateSkills.
type EMOptions struct {
	// MaxIterations caps the EM loop; 0 means the default of 100.
	MaxIterations int
	// Tolerance is the maximum absolute accuracy change below which
	// the loop stops; 0 means the default of 1e-6.
	Tolerance float64
	// PriorPositive is the prior probability that a task's true label
	// is Positive; 0 means the default of 0.5.
	PriorPositive float64
}

// EMResult is the output of EstimateSkills.
type EMResult struct {
	// Accuracy[i] is the estimated probability that worker i labels a
	// task correctly (the one-coin Dawid-Skene skill estimate).
	Accuracy []float64
	// PosteriorPositive[j] is the posterior probability that task j's
	// true label is Positive.
	PosteriorPositive []float64
	// Labels[j] is the maximum-a-posteriori label per task; Unlabeled
	// where no worker reported.
	Labels []Label
	// Iterations is the number of EM rounds performed.
	Iterations int
	// Converged reports whether the tolerance was reached before the
	// iteration cap.
	Converged bool
}

// accuracyClamp keeps estimated accuracies away from 0 and 1, where the
// log-likelihood degenerates and a worker's reports would be treated as
// infinitely informative.
const accuracyClamp = 0.01

// EstimateSkills runs one-coin Dawid-Skene EM truth discovery on a set
// of binary label reports: it alternately infers a posterior over each
// task's true label given current worker accuracies (E-step) and
// re-estimates each worker's accuracy against those posteriors
// (M-step), starting from majority-vote labels. This is the
// ground-truth-free skill estimation route the paper points to in
// Section III-A for maintaining the platform's theta matrix.
//
// The reports are grouped by task once, so an iteration costs
// O(len(reports)): it touches only the tasks and workers that appear
// in a report. A worker with no report keeps the starting accuracy 0.7
// and a task with none the prior. The buffers are allocated once per
// call, whatever the iteration count.
func EstimateSkills(reports []Report, numWorkers, numTasks int, opts EMOptions) (EMResult, error) {
	if len(reports) == 0 {
		return EMResult{}, ErrNoLabels
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-6
	}
	prior := opts.PriorPositive
	if prior <= 0 || prior >= 1 {
		prior = 0.5
	}
	for _, rep := range reports {
		if rep.Worker < 0 || rep.Worker >= numWorkers || rep.Task < 0 || rep.Task >= numTasks {
			return EMResult{}, fmt.Errorf("%w: report %+v", ErrShape, rep)
		}
		if rep.Label != Positive && rep.Label != Negative {
			return EMResult{}, fmt.Errorf("%w: report %+v has no label", ErrShape, rep)
		}
	}
	voters, votes, groups := groupReports(reports, numWorkers, numTasks)

	// Initialize posteriors from majority vote, softened so EM can move
	// away from wrong initial votes. A task nobody labelled holds the
	// prior, as the first E-step would set it; no M-step reads it.
	post := make([]float64, numTasks)
	for j := range post {
		post[j] = prior
	}
	for _, t := range groups {
		sum := 0
		for _, v := range votes[t.lo:t.hi] {
			if v.positive {
				sum++
			} else {
				sum--
			}
		}
		switch {
		case sum > 0:
			post[t.task] = 0.9
		case sum < 0:
			post[t.task] = 0.1
		default:
			post[t.task] = 0.5
		}
	}

	logPrior, logNotPrior := math.Log(prior), math.Log(1-prior)
	result := EMResult{}
	for iter := 0; iter < maxIter; iter++ {
		// M-step: accuracy = expected fraction of a worker's reports
		// matching the (soft) posterior truth. Each worker's sum runs
		// over its reports in task order, then report order.
		for k := range voters {
			voters[k].sum = 0
		}
		for _, t := range groups {
			p := post[t.task]
			for _, v := range votes[t.lo:t.hi] {
				if v.positive {
					voters[v.voter].sum += p
				} else {
					voters[v.voter].sum += 1 - p
				}
			}
		}
		maxDelta := 0.0
		for k := range voters {
			w := &voters[k]
			a := w.sum / w.count
			a = math.Min(1-accuracyClamp, math.Max(accuracyClamp, a))
			if d := math.Abs(a - w.acc); d > maxDelta {
				maxDelta = d
			}
			w.acc, w.logAcc, w.logErr = a, math.Log(a), math.Log(1-a)
		}

		// E-step: posterior of Positive per task from the current
		// accuracies, computed in log-space.
		for _, t := range groups {
			logPos, logNeg := logPrior, logNotPrior
			for _, v := range votes[t.lo:t.hi] {
				w := &voters[v.voter]
				if v.positive {
					logPos += w.logAcc
					logNeg += w.logErr
				} else {
					logPos += w.logErr
					logNeg += w.logAcc
				}
			}
			// Normalize with the log-sum-exp shift.
			m := math.Max(logPos, logNeg)
			pPos := math.Exp(logPos - m) //mcslint:allow MCS-FLT002 max-shift softmax: exponent is <= 0 by construction, cannot overflow
			pNeg := math.Exp(logNeg - m) //mcslint:allow MCS-FLT002 max-shift softmax: exponent is <= 0 by construction, cannot overflow
			post[t.task] = pPos / (pPos + pNeg)
		}

		result.Iterations = iter + 1
		if maxDelta < tol {
			result.Converged = true
			break
		}
	}

	acc := make([]float64, numWorkers)
	for i := range acc {
		acc[i] = startAccuracy
	}
	for _, w := range voters {
		acc[w.worker] = w.acc
	}
	labels := make([]Label, numTasks)
	for _, t := range groups {
		if post[t.task] >= 0.5 {
			labels[t.task] = Positive
		} else {
			labels[t.task] = Negative
		}
	}
	result.Accuracy = acc
	result.PosteriorPositive = post
	result.Labels = labels
	return result, nil
}

// startAccuracy is every worker's accuracy before the first M-step:
// optimistic but not degenerate.
const startAccuracy = 0.7

// emVoter is one reporting worker's EM state.
type emVoter struct {
	worker int
	// count is the worker's report count, sum its M-step agreement.
	count, sum float64
	// acc is the current accuracy, logAcc and logErr its logarithm and
	// that of its complement, which the E-step adds per report.
	acc, logAcc, logErr float64
}

// emVote is one report: its voter's index and whether it reads
// Positive.
type emVote struct {
	voter    int32
	positive bool
}

// emTask is one labelled task's reports, votes[lo:hi].
type emTask struct {
	task, lo, hi int
}

// groupReports groups valid reports for EM with a counting sort. It
// returns the reporting workers in order of first report; the reports
// as votes, grouped by task in ascending task order and in report
// order within a task; and the labelled tasks, ascending.
func groupReports(reports []Report, numWorkers, numTasks int) ([]emVoter, []emVote, []emTask) {
	// start[j+1] counts task j's reports; slot[w] is worker w's dense
	// index plus one, 0 until its first report.
	start := make([]int, numTasks+1)
	slot := make([]int32, numWorkers)
	voters, tasks := 0, 0
	for _, rep := range reports {
		if start[rep.Task+1] == 0 {
			tasks++
		}
		start[rep.Task+1]++
		if slot[rep.Worker] == 0 {
			voters++
			slot[rep.Worker] = int32(voters)
		}
	}
	ws := make([]emVoter, voters)
	votes := make([]emVote, len(reports))
	groups := make([]emTask, 0, tasks)
	for j := 0; j < numTasks; j++ {
		start[j+1] += start[j]
	}
	// start[j] is task j's next free vote until the pass ends, then the
	// end of its group.
	for _, rep := range reports {
		k := slot[rep.Worker] - 1
		v := &ws[k]
		v.worker = rep.Worker
		v.count++
		v.acc = startAccuracy
		votes[start[rep.Task]] = emVote{voter: k, positive: rep.Label == Positive}
		start[rep.Task]++
	}
	lo := 0
	for j := 0; j < numTasks; j++ {
		if hi := start[j]; hi > lo {
			groups = append(groups, emTask{task: j, lo: lo, hi: hi})
			lo = hi
		}
	}
	return ws, votes, groups
}

// SkillMatrix expands per-worker accuracies into the N x K theta matrix
// the auction consumes, assigning each worker her scalar accuracy on
// every task in her bundle and 0.5 (uninformative) elsewhere.
func SkillMatrix(accuracy []float64, bundles [][]int, numTasks int) ([][]float64, error) {
	if len(accuracy) != len(bundles) {
		return nil, fmt.Errorf("%w: %d accuracies vs %d bundles", ErrShape, len(accuracy), len(bundles))
	}
	skills := make([][]float64, len(accuracy))
	for i := range skills {
		row := make([]float64, numTasks)
		for j := range row {
			row[j] = 0.5
		}
		for _, j := range bundles[i] {
			if j < 0 || j >= numTasks {
				return nil, fmt.Errorf("%w: bundle task %d of %d", ErrShape, j, numTasks)
			}
			row[j] = accuracy[i]
		}
		skills[i] = row
	}
	return skills, nil
}
