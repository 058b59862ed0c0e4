package crowd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLabelString(t *testing.T) {
	if Positive.String() != "+1" || Negative.String() != "-1" || Unlabeled.String() != "?" {
		t.Error("label strings wrong")
	}
	if Label(5).String() == "" {
		t.Error("unknown label should render")
	}
}

func TestTrueLabelsBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	truth := TrueLabels(r, 10000)
	pos := 0
	for _, l := range truth {
		switch l {
		case Positive:
			pos++
		case Negative:
		default:
			t.Fatalf("unexpected label %v", l)
		}
	}
	frac := float64(pos) / 10000
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("positive fraction %.3f, want ~0.5", frac)
	}
}

func TestCollectRespectsSkill(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const k = 2000
	truth := TrueLabels(r, k)
	bundle := make([]int, k)
	skills := make([]float64, k)
	for j := range bundle {
		bundle[j] = j
		skills[j] = 0.8
	}
	reports, err := Collect(r, truth, []int{0}, [][]int{bundle}, [][]float64{skills})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != k {
		t.Fatalf("got %d reports, want %d", len(reports), k)
	}
	correct := 0
	for _, rep := range reports {
		if rep.Label == truth[rep.Task] {
			correct++
		}
	}
	frac := float64(correct) / k
	if math.Abs(frac-0.8) > 0.03 {
		t.Errorf("correct fraction %.3f, want ~0.8", frac)
	}
}

func TestCollectShapeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	truth := []Label{Positive}
	if _, err := Collect(r, truth, []int{0}, [][]int{{0}}, nil); !errors.Is(err, ErrShape) {
		t.Errorf("mismatched skills: got %v", err)
	}
	if _, err := Collect(r, truth, []int{5}, [][]int{{0}}, [][]float64{{0.9}}); !errors.Is(err, ErrShape) {
		t.Errorf("bad worker: got %v", err)
	}
	if _, err := Collect(r, truth, []int{0}, [][]int{{9}}, [][]float64{{0.9}}); !errors.Is(err, ErrShape) {
		t.Errorf("bad task: got %v", err)
	}
}

func TestWeightedAggregateUsesSkillWeights(t *testing.T) {
	// Worker 0 (skill 0.9, weight 0.8) says Positive; workers 1 and 2
	// (skill 0.55, weight 0.1) say Negative. Weighted: +0.8 - 0.2 > 0.
	skills := [][]float64{{0.9}, {0.55}, {0.55}}
	reports := []Report{
		{Worker: 0, Task: 0, Label: Positive},
		{Worker: 1, Task: 0, Label: Negative},
		{Worker: 2, Task: 0, Label: Negative},
	}
	agg, err := WeightedAggregate(reports, skills, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg[0] != Positive {
		t.Errorf("weighted aggregate = %v, want +1", agg[0])
	}
	mv, err := MajorityVote(reports, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mv[0] != Negative {
		t.Errorf("majority vote = %v, want -1", mv[0])
	}
}

func TestAggregateUnlabeledTasks(t *testing.T) {
	agg, err := WeightedAggregate(nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, l := range agg {
		if l != Unlabeled {
			t.Errorf("task %d = %v, want unlabeled", j, l)
		}
	}
}

func TestAggregateShapeErrors(t *testing.T) {
	if _, err := WeightedAggregate([]Report{{Worker: 0, Task: 5}}, [][]float64{{0.5}}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("bad task: got %v", err)
	}
	if _, err := WeightedAggregate([]Report{{Worker: 5, Task: 0}}, [][]float64{{0.5}}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("bad worker: got %v", err)
	}
	if _, err := WeightedAggregate([]Report{{Worker: 0, Task: 2, Label: Positive}}, [][]float64{{0.9}}, 3); !errors.Is(err, ErrShape) {
		t.Errorf("short skill row: got %v", err)
	}
	if _, err := MajorityVote([]Report{{Worker: 0, Task: 5}}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("majority bad task: got %v", err)
	}
}

func TestErrorRate(t *testing.T) {
	truth := []Label{Positive, Negative, Positive, Negative}
	est := []Label{Positive, Positive, Unlabeled, Negative}
	rate, err := ErrorRate(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0.5 {
		t.Errorf("error rate = %v, want 0.5", rate)
	}
	if _, err := ErrorRate(est[:2], truth); !errors.Is(err, ErrShape) {
		t.Errorf("shape: got %v", err)
	}
	empty, err := ErrorRate(nil, nil)
	if err != nil || empty != 0 {
		t.Errorf("empty: %v, %v", empty, err)
	}
}

func TestLemma1ErrorBoundHolds(t *testing.T) {
	// Construct a pool of workers whose combined quality meets
	// Q = 2 ln(1/delta) for one task, then verify the Monte-Carlo error
	// frequency respects delta. This is the empirical content of
	// Lemma 1.
	const delta = 0.1
	need := 2 * math.Log(1/delta)
	theta := 0.8
	q := (2*theta - 1) * (2*theta - 1) // 0.36
	workers := int(math.Ceil(need/q)) + 1

	r := rand.New(rand.NewSource(7))
	bundles := make([][]int, workers)
	skills := make([][]float64, workers)
	ids := make([]int, workers)
	for i := range bundles {
		bundles[i] = []int{0}
		skills[i] = []float64{theta}
		ids[i] = i
	}
	const trials = 20000
	wrong := 0
	for trial := 0; trial < trials; trial++ {
		truth := TrueLabels(r, 1)
		reports, err := Collect(r, truth, ids, bundles, skills)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := WeightedAggregate(reports, skills, 1)
		if err != nil {
			t.Fatal(err)
		}
		if agg[0] != truth[0] {
			wrong++
		}
	}
	rate := float64(wrong) / trials
	if rate > delta {
		t.Errorf("empirical error %.4f exceeds delta %.2f", rate, delta)
	}
}

func TestEstimateSkillsRecoversAccuracies(t *testing.T) {
	// 30 workers of known accuracy label 300 tasks; EM should recover
	// accuracies within a few points and beat majority vote's labels.
	r := rand.New(rand.NewSource(11))
	const (
		numWorkers = 30
		numTasks   = 300
	)
	truth := TrueLabels(r, numTasks)
	trueAcc := make([]float64, numWorkers)
	bundles := make([][]int, numWorkers)
	skills := make([][]float64, numWorkers)
	ids := make([]int, numWorkers)
	for i := 0; i < numWorkers; i++ {
		trueAcc[i] = 0.55 + 0.4*r.Float64()
		ids[i] = i
		bundle := make([]int, numTasks)
		row := make([]float64, numTasks)
		for j := range bundle {
			bundle[j] = j
			row[j] = trueAcc[i]
		}
		bundles[i] = bundle
		skills[i] = row
	}
	reports, err := Collect(r, truth, ids, bundles, skills)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateSkills(reports, numWorkers, numTasks, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("EM did not converge")
	}
	meanAbs := 0.0
	for i := range trueAcc {
		meanAbs += math.Abs(res.Accuracy[i] - trueAcc[i])
	}
	meanAbs /= numWorkers
	if meanAbs > 0.05 {
		t.Errorf("mean absolute accuracy error %.3f, want < 0.05", meanAbs)
	}
	emErr, err := ErrorRate(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if emErr > 0.02 {
		t.Errorf("EM label error %.3f, want < 0.02", emErr)
	}
}

func TestEstimateSkillsErrors(t *testing.T) {
	if _, err := EstimateSkills(nil, 1, 1, EMOptions{}); !errors.Is(err, ErrNoLabels) {
		t.Errorf("no reports: got %v", err)
	}
	bad := []Report{{Worker: 9, Task: 0, Label: Positive}}
	if _, err := EstimateSkills(bad, 1, 1, EMOptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("bad worker: got %v", err)
	}
	unl := []Report{{Worker: 0, Task: 0, Label: Unlabeled}}
	if _, err := EstimateSkills(unl, 1, 1, EMOptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("unlabeled report: got %v", err)
	}
}

func TestSkillMatrix(t *testing.T) {
	m, err := SkillMatrix([]float64{0.9, 0.7}, [][]int{{0, 2}, {1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.9, 0.5, 0.9}, {0.5, 0.7, 0.5}}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, m[i][j], want[i][j])
			}
		}
	}
	if _, err := SkillMatrix([]float64{0.9}, [][]int{{0}, {1}}, 2); !errors.Is(err, ErrShape) {
		t.Errorf("length mismatch: got %v", err)
	}
	if _, err := SkillMatrix([]float64{0.9}, [][]int{{7}}, 2); !errors.Is(err, ErrShape) {
		t.Errorf("bad bundle: got %v", err)
	}
}
