package protocol

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

func TestSkillStoreDefaults(t *testing.T) {
	s := NewSkillStore(0.8)
	if got := s.Get("unknown"); got != 0.8 {
		t.Errorf("unknown worker accuracy %v, want 0.8", got)
	}
	row := s.Func()("unknown", 3)
	if len(row) != 3 || row[0] != 0.8 || row[2] != 0.8 {
		t.Errorf("skill row %v", row)
	}
	// Degenerate defaults fall back to 0.7.
	for _, d := range []float64{0, 1, 1.5, -0.2, math.NaN()} {
		s := NewSkillStore(d)
		if got := s.Get("x"); got != 0.7 {
			t.Errorf("default %v: unknown worker accuracy %v, want 0.7", d, got)
		}
		if row := s.Func()("x", 2); row[0] != 0.7 || row[1] != 0.7 {
			t.Errorf("default %v: skill row %v, want 0.7s", d, row)
		}
	}
}

func TestSkillStoreUpdateFromReports(t *testing.T) {
	// Two workers: one always right, one always wrong against a large
	// task set; EM should push their stored accuracies apart.
	s := NewSkillStore(0.7)
	const tasks = 60
	var reports []crowd.Report
	r := rand.New(rand.NewSource(3))
	truth := crowd.TrueLabels(r, tasks)
	for j := 0; j < tasks; j++ {
		reports = append(reports,
			crowd.Report{Worker: 0, Task: j, Label: truth[j]},
			crowd.Report{Worker: 1, Task: j, Label: truth[j]},
			crowd.Report{Worker: 2, Task: j, Label: -truth[j]},
		)
	}
	ids := []string{"good-a", "good-b", "bad"}
	if err := s.UpdateFromReports(reports, ids, tasks); err != nil {
		t.Fatal(err)
	}
	if s.Get("good-a") <= s.Get("bad") {
		t.Errorf("good %.3f not above bad %.3f", s.Get("good-a"), s.Get("bad"))
	}
	// A worker with no reports keeps the prior.
	if err := s.UpdateFromReports(reports[:2*tasks], ids, tasks); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("never-seen"); got != 0.7 {
		t.Errorf("unseen worker moved to %v", got)
	}
}

// TestSkillStoreUpdateWeighsLabels pins the update rule: a round in
// which a worker gave n labels moves its estimate n/(skillPriorLabels+n)
// of the way from where it stood to the round's EM accuracy, round
// after round, and a worker who gave none keeps its estimate.
func TestSkillStoreUpdateWeighsLabels(t *testing.T) {
	const tasks = 8
	s := NewSkillStoreFromState(0.7, map[string]float64{"b": 0.9, "idle": 0.6})
	ids := []string{"a", "b", "idle"}
	// b labels every task Positive; a labels two and disagrees on one.
	var reports []crowd.Report
	for j := 0; j < tasks; j++ {
		reports = append(reports, crowd.Report{Worker: 1, Task: j, Label: crowd.Positive})
	}
	reports = append(reports,
		crowd.Report{Worker: 0, Task: 0, Label: crowd.Positive},
		crowd.Report{Worker: 0, Task: 1, Label: crowd.Negative})
	labels := []float64{2, tasks}
	em, err := crowd.EstimateSkills(reports, len(ids), tasks, crowd.EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		before := []float64{s.Get("a"), s.Get("b")}
		if err := s.UpdateFromReports(reports, ids, tasks); err != nil {
			t.Fatal(err)
		}
		for i, n := range labels {
			want := before[i] + n/(skillPriorLabels+n)*(em.Accuracy[i]-before[i])
			if got := s.Get(ids[i]); math.Abs(got-want) > 1e-12 || got == before[i] {
				t.Errorf("round %d: %s moved from %v to %v with %v labels at EM accuracy %v, want %v",
					round, ids[i], before[i], got, n, em.Accuracy[i], want)
			}
		}
		if got := s.Get("idle"); got != 0.6 {
			t.Errorf("round %d: a worker with no labels moved to %v", round, got)
		}
	}
}

func TestSkillStoreUpdateEmptyReports(t *testing.T) {
	s := NewSkillStore(0.7)
	if err := s.UpdateFromReports(nil, []string{"a"}, 3); err != nil {
		t.Fatalf("empty update should be a no-op: %v", err)
	}
}

func TestRunCampaignLearnsSkills(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const (
		numTasks   = 4
		numWorkers = 6
		rounds     = 3
	)
	store := NewSkillStore(0.9)
	cfg := testPlatformConfig(t)
	cfg.Skills = store.Func()
	cfg.MinWorkers = numWorkers
	cfg.BidWindow = 3 * time.Second
	// Loose error budgets: as truth discovery pulls the noisy workers'
	// estimates down, the round must stay coverable by the sharp three.
	cfg.Thresholds = []float64{0.45, 0.45, 0.45, 0.45}
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type result struct {
		campaign CampaignReport
		err      error
	}
	resCh := make(chan result, 1)
	go func() {
		c, err := platform.RunCampaignTolerant(ctx, ln, rounds, store)
		resCh <- result{c, err}
	}()

	// True accuracies: three sharp workers, three noisy ones. A shared
	// ground truth per round.
	trueAcc := []float64{0.97, 0.97, 0.97, 0.55, 0.55, 0.55}
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		truthRand := rand.New(rand.NewSource(int64(500 + round)))
		truth := crowd.TrueLabels(truthRand, numTasks)
		for i := 0; i < numWorkers; i++ {
			wg.Add(1)
			go func(i, round int) {
				defer wg.Done()
				obs := rand.New(rand.NewSource(int64(round*100 + i)))
				_, err := Participate(ctx, ln.Addr().String(), WorkerConfig{
					ID:     workerID(i),
					Bundle: []int{0, 1, 2, 3},
					Cost:   6 + float64(i),
					Labels: func(task int) crowd.Label {
						l := truth[task]
						if obs.Float64() >= trueAcc[i] {
							l = -l
						}
						return l
					},
				})
				if err != nil {
					t.Errorf("round %d worker %d: %v", round, i, err)
				}
			}(i, round)
		}
		wg.Wait()
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("campaign: %v", res.err)
	}
	if len(res.campaign.Rounds) != rounds {
		t.Fatalf("rounds = %d, want %d", len(res.campaign.Rounds), rounds)
	}
	if res.campaign.TotalPayment <= 0 {
		t.Fatal("no payments made")
	}
	assertCampaignRoundsJoin(t, cfg.Events, []int{0, 1, 2})

	// After three rounds of truth discovery the store should rank sharp
	// workers above noisy ones.
	sharp := (store.Get(workerID(0)) + store.Get(workerID(1)) + store.Get(workerID(2))) / 3
	noisy := (store.Get(workerID(3)) + store.Get(workerID(4)) + store.Get(workerID(5))) / 3
	if !(sharp > noisy) {
		t.Errorf("learned skills do not separate: sharp %.3f vs noisy %.3f", sharp, noisy)
	}
	if math.Abs(sharp-0.9) < 1e-9 {
		t.Error("sharp workers' accuracy never updated from the prior")
	}
}

// TestCampaignDropsUnlabeledReports: winners whose LabelFunc leaves
// task 2 Unlabeled send label 0 for it. The platform drops those
// reports, so truth discovery sees only +1 and -1 labels, and the
// campaign completes both rounds with task 2 unaggregated.
func TestCampaignDropsUnlabeledReports(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const numWorkers, rounds = 6, 2
	store := NewSkillStore(0.9)
	cfg := testPlatformConfig(t)
	cfg.Skills = store.Func()
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type result struct {
		campaign CampaignReport
		err      error
	}
	resCh := make(chan result, 1)
	go func() {
		c, err := platform.RunCampaignTolerant(ctx, ln, rounds, store)
		resCh <- result{c, err}
	}()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < numWorkers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := Participate(ctx, ln.Addr().String(), WorkerConfig{
					ID:     workerID(i),
					Bundle: []int{0, 1, 2, 3},
					Cost:   6 + float64(i),
					Labels: func(task int) crowd.Label {
						if task == 2 {
							return crowd.Unlabeled
						}
						return crowd.Positive
					},
					IOTimeout: 2 * time.Second,
				})
				if err != nil {
					t.Errorf("round %d worker %d: %v", round, i, err)
				}
			}(i)
		}
		wg.Wait()
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("campaign: %v", res.err)
	}
	if len(res.campaign.Rounds) != rounds {
		t.Fatalf("campaign completed %d rounds, want %d", len(res.campaign.Rounds), rounds)
	}
	for _, r := range res.campaign.Rounds {
		want := []crowd.Label{crowd.Positive, crowd.Positive, crowd.Unlabeled, crowd.Positive}
		if !slices.Equal(r.Aggregated, want) || r.ReportsReceived != 3*len(r.Outcome.Winners) {
			t.Errorf("round %d aggregated %v from %d reports of %d winners; want %v from three each",
				r.Round, r.Aggregated, r.ReportsReceived, len(r.Outcome.Winners), want)
		}
	}
}

func TestRunCampaignValidation(t *testing.T) {
	platform, err := NewPlatform(testPlatformConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.RunCampaignTolerant(context.Background(), nil, 0, nil); !errors.Is(err, ErrNoRounds) {
		t.Errorf("zero rounds: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := platform.RunCampaignTolerant(ctx, nil, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: got %v", err)
	}
}

// TestCampaignErrorNamesRound: a hard failure ends the campaign with
// an error naming the 0-based round index that the round's events,
// the journal and RoundReport.Round carry. Here the budget covers one
// round, so round 1 is refused.
func TestCampaignErrorNamesRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testPlatformConfig(t)
	acct, err := mechanism.NewAccountant(1.5 * cfg.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accountant = acct
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	type result struct {
		campaign CampaignReport
		err      error
	}
	resCh := make(chan result, 1)
	go func() {
		c, err := platform.RunCampaignTolerant(ctx, ln, 3, nil)
		resCh <- result{c, err}
	}()
	runWorkers(ctx, t, ln.Addr().String(), 6)
	res := <-resCh
	if !errors.Is(res.err, mechanism.ErrBudgetExhausted) {
		t.Fatalf("campaign = %v, want budget exhaustion", res.err)
	}
	if len(res.campaign.Rounds) != 1 || res.campaign.Rounds[0].Round != 0 {
		t.Fatalf("campaign completed %+v, want round 0 alone", res.campaign.Rounds)
	}
	if !strings.HasPrefix(res.err.Error(), "protocol: round 1: ") {
		t.Errorf("campaign error %q does not name round 1", res.err)
	}
	failed := cfg.Events.Tail(0, 0, evlog.LevelDebug, "round.failed")
	if len(failed) != 1 {
		t.Fatalf("%d round.failed events, want 1", len(failed))
	}
	e, err := evlog.ParseEvent(failed[0].Raw)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := e.Int("round"); r != 1 {
		t.Errorf("round.failed names round %d, want 1", r)
	}
}
