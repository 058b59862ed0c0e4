package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/dphsrc/dphsrc/internal/stats"
)

func mustAuction(t *testing.T, inst Instance, opts ...Option) *Auction {
	t.Helper()
	a, err := New(inst, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// coverageSatisfied checks the error-bound constraint (Lemma 1 /
// Equation 1) for a winner set.
func coverageSatisfied(inst *Instance, winners []int) bool {
	for j := 0; j < inst.NumTasks; j++ {
		sum := 0.0
		for _, i := range winners {
			sum += inst.Quality(i, j)
		}
		if sum < inst.Demand(j)-1e-6 {
			return false
		}
	}
	return true
}

func TestAuctionSupportIsFeasibleSubset(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	if len(a.Support()) == 0 {
		t.Fatal("empty support")
	}
	for _, info := range a.Support() {
		if !info.Feasible {
			t.Fatalf("default support contains infeasible price %v", info.Price)
		}
		if !coverageSatisfied(&inst, info.Winners) {
			t.Fatalf("winner set at price %v violates error bounds", info.Price)
		}
		if got := info.Price * float64(len(info.Winners)); math.Abs(got-info.Payment) > 1e-9 {
			t.Fatalf("payment %v != price*|S| %v", info.Payment, got)
		}
	}
}

func TestAuctionIndividualRationality(t *testing.T) {
	// Theorem 4: every winner's bid is at most the clearing price, so
	// under truthful bidding utility = price - cost >= 0.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		inst := feasibleRandomInstance(r)
		a, err := New(inst)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range a.Support() {
			for _, w := range info.Winners {
				if inst.Workers[w].Bid > info.Price+1e-9 {
					t.Fatalf("winner %d bid %v above price %v", w, inst.Workers[w].Bid, info.Price)
				}
			}
		}
		out := a.Run(r)
		for _, w := range out.Winners {
			if inst.Workers[w].Bid > out.Price+1e-9 {
				t.Fatalf("sampled winner %d bid %v above price %v", w, inst.Workers[w].Bid, out.Price)
			}
		}
	}
}

func TestGreedyMatchesNaive(t *testing.T) {
	// The lazy CELF greedy must produce exactly the winner sets of the
	// literal Algorithm 1 argmax scan.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		inst := feasibleRandomInstance(r)
		lazy, errLazy := New(inst, WithRule(RuleGreedy))
		naive, errNaive := New(inst, WithRule(RuleGreedyNaive))
		if (errLazy == nil) != (errNaive == nil) {
			t.Fatalf("feasibility disagreement: %v vs %v", errLazy, errNaive)
		}
		if errLazy != nil {
			continue
		}
		ls, ns := lazy.Support(), naive.Support()
		if len(ls) != len(ns) {
			t.Fatalf("support sizes differ: %d vs %d", len(ls), len(ns))
		}
		for k := range ls {
			if ls[k].Price != ns[k].Price {
				t.Fatalf("price %v vs %v at %d", ls[k].Price, ns[k].Price, k)
			}
			if len(ls[k].Winners) != len(ns[k].Winners) {
				t.Fatalf("winner sets differ at price %v: %v vs %v", ls[k].Price, ls[k].Winners, ns[k].Winners)
			}
			for i := range ls[k].Winners {
				if ls[k].Winners[i] != ns[k].Winners[i] {
					t.Fatalf("winner order differs at price %v: %v vs %v", ls[k].Price, ls[k].Winners, ns[k].Winners)
				}
			}
		}
	}
}

func TestLazyGreedyDoesFewerEvaluations(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	var inst Instance
	for {
		inst = feasibleRandomInstance(r)
		if _, err := New(inst); err == nil {
			break
		}
	}
	lazy := mustAuction(t, inst, WithRule(RuleGreedy))
	naive := mustAuction(t, inst, WithRule(RuleGreedyNaive))
	if lazy.GainEvaluations() > naive.GainEvaluations() {
		t.Errorf("lazy greedy did more evaluations (%d) than naive (%d)",
			lazy.GainEvaluations(), naive.GainEvaluations())
	}
}

func TestStaticRuleCoversToo(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		inst := feasibleRandomInstance(r)
		a, err := New(inst, WithRule(RuleStatic))
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range a.Support() {
			if !coverageSatisfied(&inst, info.Winners) {
				t.Fatalf("static winner set at price %v violates error bounds", info.Price)
			}
		}
	}
}

func TestGreedyNeverWorseThanStaticOnAverage(t *testing.T) {
	// Figures 1-4 hinge on the greedy rule beating the static baseline.
	// Per-instance dominance is not guaranteed, but across many random
	// instances the expected payment must be lower.
	r := rand.New(rand.NewSource(55))
	greedySum, staticSum := 0.0, 0.0
	trials := 0
	for trials < 25 {
		inst := feasibleRandomInstance(r)
		g, errG := New(inst, WithRule(RuleGreedy))
		s, errS := New(inst, WithRule(RuleStatic))
		if errG != nil || errS != nil {
			continue
		}
		greedySum += g.ExpectedPayment()
		staticSum += s.ExpectedPayment()
		trials++
	}
	if greedySum > staticSum*1.001 {
		t.Errorf("greedy mean payment %v exceeds static %v", greedySum/25, staticSum/25)
	}
}

func TestIntervalSharing(t *testing.T) {
	// Prices between two consecutive bid values admit identical
	// candidate sets, hence identical winner sets (Alg. 1 lines 14-15).
	inst := tinyInstance()
	a := mustAuction(t, inst)
	byCount := make(map[int][]int)
	for _, info := range a.Support() {
		count := 0
		for _, w := range inst.Workers {
			if w.Bid <= info.Price+1e-9 {
				count++
			}
		}
		if prev, ok := byCount[count]; ok {
			if len(prev) != len(info.Winners) {
				t.Fatalf("same candidate count %d, different winner sets", count)
			}
			for i := range prev {
				if prev[i] != info.Winners[i] {
					t.Fatalf("same candidate count %d, different winner sets", count)
				}
			}
		} else {
			byCount[count] = info.Winners
		}
	}
}

func TestPMFValidAndBiasedTowardCheapPrices(t *testing.T) {
	inst := tinyInstance()
	inst.Epsilon = 5 // strong bias for a visible effect
	a := mustAuction(t, inst)
	pmf := a.PMF()
	if err := stats.ValidatePMF(pmf); err != nil {
		t.Fatalf("PMF invalid: %v", err)
	}
	support := a.Support()
	// Find min- and max-payment indices; PMF must order them correctly.
	minIdx, maxIdx := 0, 0
	for i, info := range support {
		if info.Payment < support[minIdx].Payment {
			minIdx = i
		}
		if info.Payment > support[maxIdx].Payment {
			maxIdx = i
		}
	}
	if support[minIdx].Payment < support[maxIdx].Payment && pmf[minIdx] <= pmf[maxIdx] {
		t.Errorf("PMF not biased toward low payment: p(min)=%v p(max)=%v", pmf[minIdx], pmf[maxIdx])
	}
}

func TestExpectedPaymentMatchesManualDot(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	pmf := a.PMF()
	want := 0.0
	for i, info := range a.Support() {
		want += pmf[i] * info.Payment
	}
	if got := a.ExpectedPayment(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedPayment = %v, want %v", got, want)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	o1 := a.Run(rand.New(rand.NewSource(42)))
	o2 := a.Run(rand.New(rand.NewSource(42)))
	if o1.Price != o2.Price || len(o1.Winners) != len(o2.Winners) {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", o1, o2)
	}
}

func TestRunSampleFrequenciesMatchPMF(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	pmf := a.PMF()
	support := a.Support()
	counts := make(map[float64]int)
	r := rand.New(rand.NewSource(3))
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[a.Run(r).Price]++
	}
	for i, info := range support {
		freq := float64(counts[info.Price]) / trials
		if math.Abs(freq-pmf[i]) > 0.01 {
			t.Errorf("price %v: frequency %.4f vs PMF %.4f", info.Price, freq, pmf[i])
		}
	}
}

func TestOutcomePayments(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	out := a.Run(rand.New(rand.NewSource(1)))
	pay, err := out.Payments(len(inst.Workers))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i, p := range pay {
		if p != 0 && p != out.Price {
			t.Fatalf("worker %d paid %v, want 0 or %v", i, p, out.Price)
		}
		total += p
	}
	if math.Abs(total-out.TotalPayment) > 1e-9 {
		t.Errorf("payments sum %v != total %v", total, out.TotalPayment)
	}
}

func TestOutcomePaymentsWorkerIndexOutOfRange(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	out := a.Run(rand.New(rand.NewSource(1)))
	if len(out.Winners) == 0 {
		t.Fatal("expected a non-empty winner set")
	}
	// An outcome settled against too few workers must report a
	// descriptive error rather than panic on the slice index.
	if _, err := out.Payments(0); !errors.Is(err, ErrWorkerIndex) {
		t.Errorf("numWorkers=0: want ErrWorkerIndex, got %v", err)
	}
	bad := out
	bad.Winners = []int{-1}
	if _, err := bad.Payments(len(inst.Workers)); !errors.Is(err, ErrWorkerIndex) {
		t.Errorf("negative winner: want ErrWorkerIndex, got %v", err)
	}
}

func TestWinProbabilityBounds(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	for i := range inst.Workers {
		p, err := a.WinProbability(i)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Errorf("worker %d win probability %v", i, p)
		}
	}
	if _, err := a.WinProbability(-1); !errors.Is(err, ErrWorkerIndex) {
		t.Errorf("want ErrWorkerIndex, got %v", err)
	}
	if _, err := a.ExpectedUtility(99, 10); !errors.Is(err, ErrWorkerIndex) {
		t.Errorf("want ErrWorkerIndex, got %v", err)
	}
}

func TestNewErrInfeasible(t *testing.T) {
	inst := tinyInstance()
	// Demand far beyond what four workers can cover.
	for j := range inst.Thresholds {
		inst.Thresholds[j] = 1e-9
	}
	if _, err := New(inst); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestWithPriceSetValidation(t *testing.T) {
	inst := tinyInstance()
	if _, err := New(inst, WithPriceSet(nil)); !errors.Is(err, ErrEmptySupport) {
		t.Errorf("empty support: got %v", err)
	}
	if _, err := New(inst, WithPriceSet([]float64{5, 4})); !errors.Is(err, ErrBadPriceGrid) {
		t.Errorf("descending support: got %v", err)
	}
	// Eq. 10's normalizer 2*N*cmax covers a payment only up to cmax*N.
	if _, err := New(inst, WithPriceSet([]float64{20, inst.CMax + 1})); !errors.Is(err, ErrBadPriceGrid) {
		t.Errorf("support above cmax: got %v", err)
	}
}

func TestWithPriceSetKeepsInfeasiblePrices(t *testing.T) {
	inst := tinyInstance()
	// Price 6 admits no candidates (cheapest bid is 10): infeasible,
	// kept in support with the maximal penalty payment pMax*N = 20*N so
	// the payment-minimizing mechanism never prefers it.
	a := mustAuction(t, inst, WithPriceSet([]float64{6, 20}))
	support := a.Support()
	if len(support) != 2 {
		t.Fatalf("support size %d, want 2", len(support))
	}
	if support[0].Feasible {
		t.Error("price 6 should be infeasible")
	}
	if want := 20.0 * float64(len(inst.Workers)); support[0].Payment != want {
		t.Errorf("penalty payment %v, want %v", support[0].Payment, want)
	}
	if !support[1].Feasible {
		t.Error("price 20 should be feasible")
	}
}

func TestAuctionImmutableAgainstCallerMutation(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	before := a.ExpectedPayment()
	inst.Workers[0].Bid = 24 // caller mutates after construction
	inst.Skills[1][1] = 0.5
	if after := a.ExpectedPayment(); after != before {
		t.Fatal("auction state changed when caller mutated the instance")
	}
}

func TestInstanceAccessorReturnsCopy(t *testing.T) {
	a := mustAuction(t, tinyInstance())
	got := a.Instance()
	got.Workers[0].Bid = 24
	if a.Instance().Workers[0].Bid == 24 {
		t.Fatal("Instance() exposed internal state")
	}
}
