package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// estimateSkillsReference is EstimateSkills as it was before it grouped
// the reports by task: every iteration scans every task and allocates a
// numWorkers-long accumulator. EstimateSkills must return its result
// bit for bit.
func estimateSkillsReference(reports []Report, numWorkers, numTasks int, opts EMOptions) (EMResult, error) {
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

	byTask := make([][]Report, numTasks)
	counts := make([]int, numWorkers)
	for _, rep := range reports {
		if rep.Worker < 0 || rep.Worker >= numWorkers || rep.Task < 0 || rep.Task >= numTasks {
			return EMResult{}, fmt.Errorf("%w: report %+v", ErrShape, rep)
		}
		if rep.Label != Positive && rep.Label != Negative {
			return EMResult{}, fmt.Errorf("%w: report %+v has no label", ErrShape, rep)
		}
		byTask[rep.Task] = append(byTask[rep.Task], rep)
		counts[rep.Worker]++
	}

	// Initialize posteriors from majority vote, softened so EM can move
	// away from wrong initial votes.
	post := make([]float64, numTasks)
	for j, reps := range byTask {
		sum := 0
		for _, rep := range reps {
			sum += int(rep.Label)
		}
		switch {
		case sum > 0:
			post[j] = 0.9
		case sum < 0:
			post[j] = 0.1
		default:
			post[j] = 0.5
		}
	}

	acc := make([]float64, numWorkers)
	for i := range acc {
		acc[i] = 0.7 // optimistic but not degenerate starting accuracy
	}

	result := EMResult{}
	for iter := 0; iter < maxIter; iter++ {
		// M-step: accuracy = expected fraction of a worker's reports
		// matching the (soft) posterior truth.
		newAcc := make([]float64, numWorkers)
		for j, reps := range byTask {
			for _, rep := range reps {
				if rep.Label == Positive {
					newAcc[rep.Worker] += post[j]
				} else {
					newAcc[rep.Worker] += 1 - post[j]
				}
			}
		}
		maxDelta := 0.0
		for i := range newAcc {
			if counts[i] == 0 {
				newAcc[i] = acc[i]
				continue
			}
			a := newAcc[i] / float64(counts[i])
			a = math.Min(1-accuracyClamp, math.Max(accuracyClamp, a))
			if d := math.Abs(a - acc[i]); d > maxDelta {
				maxDelta = d
			}
			newAcc[i] = a
		}
		acc = newAcc

		// E-step: posterior of Positive per task from the current
		// accuracies, computed in log-space.
		for j, reps := range byTask {
			if len(reps) == 0 {
				post[j] = prior
				continue
			}
			logPos := math.Log(prior)
			logNeg := math.Log(1 - prior)
			for _, rep := range reps {
				a := acc[rep.Worker]
				if rep.Label == Positive {
					logPos += math.Log(a)
					logNeg += math.Log(1 - a)
				} else {
					logPos += math.Log(1 - a)
					logNeg += math.Log(a)
				}
			}
			// Normalize with the log-sum-exp shift.
			m := math.Max(logPos, logNeg)
			pPos := math.Exp(logPos - m) //mcslint:allow MCS-FLT002 max-shift softmax: exponent is <= 0 by construction, cannot overflow
			pNeg := math.Exp(logNeg - m) //mcslint:allow MCS-FLT002 max-shift softmax: exponent is <= 0 by construction, cannot overflow
			post[j] = pPos / (pPos + pNeg)
		}

		result.Iterations = iter + 1
		if maxDelta < tol {
			result.Converged = true
			break
		}
	}

	labels := make([]Label, numTasks)
	for j := range labels {
		if len(byTask[j]) == 0 {
			continue
		}
		if post[j] >= 0.5 {
			labels[j] = Positive
		} else {
			labels[j] = Negative
		}
	}
	result.Accuracy = acc
	result.PosteriorPositive = post
	result.Labels = labels
	return result, nil
}

// randomReports draws a report set over numWorkers x numTasks in which
// some workers and tasks have no report, a worker may label a task
// twice, and many tasks split their votes evenly.
func randomReports(r *rand.Rand, numWorkers, numTasks int) []Report {
	var reports []Report
	for w := 0; w < numWorkers; w++ {
		if r.Intn(4) == 0 {
			continue // a worker with no report
		}
		for j := 0; j < numTasks; j++ {
			if j%3 == 2 || r.Intn(3) == 0 {
				continue // every third task, at least, has fewer labels
			}
			label := Positive
			if r.Intn(2) == 0 {
				label = Negative
			}
			reports = append(reports, Report{Worker: w, Task: j, Label: label})
			if r.Intn(10) == 0 {
				reports = append(reports, Report{Worker: w, Task: j, Label: -label})
			}
		}
	}
	r.Shuffle(len(reports), func(a, b int) { reports[a], reports[b] = reports[b], reports[a] })
	return reports
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEstimateSkillsMatchesReference requires EstimateSkills to return
// the reference's result bit for bit on random report sets: the same
// accuracies, posteriors, labels, iteration count and convergence flag,
// under default and explicit options, and the same error on bad input.
func TestEstimateSkillsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	optSets := []EMOptions{
		{},
		{MaxIterations: 1},
		{MaxIterations: 3, Tolerance: 1e-12},
		{PriorPositive: 0.3},
		{PriorPositive: 1.5, Tolerance: 1e-3},
	}
	for trial := 0; trial < 300; trial++ {
		numWorkers, numTasks := 1+r.Intn(12), 1+r.Intn(9)
		reports := randomReports(r, numWorkers, numTasks)
		if trial%50 == 0 {
			// Two equally accurate workers disagreeing everywhere tie
			// every task's posterior at 0.5.
			reports = reports[:0]
			for j := 0; j < numTasks; j++ {
				reports = append(reports, Report{Worker: 0, Task: j, Label: Positive},
					Report{Worker: numWorkers - 1, Task: j, Label: Negative})
			}
		}
		opts := optSets[trial%len(optSets)]
		want, wantErr := estimateSkillsReference(reports, numWorkers, numTasks, opts)
		got, gotErr := EstimateSkills(reports, numWorkers, numTasks, opts)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if !sameBits(got.Accuracy, want.Accuracy) || !sameBits(got.PosteriorPositive, want.PosteriorPositive) {
			t.Fatalf("trial %d: accuracy %v posterior %v, reference %v %v",
				trial, got.Accuracy, got.PosteriorPositive, want.Accuracy, want.PosteriorPositive)
		}
		if fmt.Sprint(got.Labels) != fmt.Sprint(want.Labels) ||
			got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("trial %d: labels %v after %d iterations (converged %v), reference %v after %d (%v)",
				trial, got.Labels, got.Iterations, got.Converged, want.Labels, want.Iterations, want.Converged)
		}
	}
	bad := [][]Report{
		{{Worker: 0, Task: 0, Label: Positive}, {Worker: 5, Task: 0, Label: Positive}},
		{{Worker: 0, Task: -1, Label: Positive}},
		{{Worker: 0, Task: 0, Label: Positive}, {Worker: 1, Task: 1, Label: 3}},
	}
	for _, reports := range bad {
		_, wantErr := estimateSkillsReference(reports, 2, 2, EMOptions{})
		_, gotErr := EstimateSkills(reports, 2, 2, EMOptions{})
		if gotErr == nil || !errors.Is(gotErr, ErrShape) || gotErr.Error() != wantErr.Error() {
			t.Errorf("reports %v: error %v, reference %v", reports, gotErr, wantErr)
		}
	}
}

// TestEstimateSkillsAllocations bounds EstimateSkills' allocations by a
// constant: its buffers are sized once per call, so running 60
// iterations costs what one does.
func TestEstimateSkillsAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	reports := randomReports(r, 40, 30)
	long := EMOptions{MaxIterations: 60, Tolerance: 1e-300}
	if res, err := EstimateSkills(reports, 40, 30, long); err != nil || res.Iterations < 10 {
		t.Fatalf("fixture: %d iterations, err %v; want at least 10", res.Iterations, err)
	}
	allocs := func(opts EMOptions) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := EstimateSkills(reports, 40, 30, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(EMOptions{MaxIterations: 1}), allocs(long)
	const ceiling = 8
	if one != many || many > ceiling {
		t.Errorf("allocations: %v for 1 iteration, %v for many; want equal and at most %d", one, many, ceiling)
	}
}
