package protocol

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
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
	// Degenerate default falls back to 0.7.
	if got := NewSkillStore(1.5).Get("x"); got != 0.7 {
		t.Errorf("degenerate default %v", got)
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
