package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestPropertyOutcomeAlwaysVerifies: every outcome the mechanism emits
// passes VerifyOutcome, across random instances and random draws.
func TestPropertyOutcomeAlwaysVerifies(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		inst := feasibleRandomInstance(rr)
		a, err := New(inst)
		if errors.Is(err, ErrInfeasible) {
			return true
		}
		if err != nil {
			t.Logf("unexpected error: %v", err)
			return false
		}
		for d := 0; d < 3; d++ {
			if err := VerifyOutcome(inst, a.Run(rr)); err != nil {
				t.Logf("verify: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPMFAntiMonotoneInPayment: across any support, a strictly
// cheaper total payment never has a smaller probability (exponential
// weights are decreasing in payment).
func TestPropertyPMFAntiMonotoneInPayment(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		inst := feasibleRandomInstance(rr)
		a, err := New(inst)
		if err != nil {
			return true
		}
		pmf := a.PMF()
		support := a.Support()
		for i := range support {
			for j := range support {
				if support[i].Payment < support[j].Payment-1e-9 && pmf[i] < pmf[j]-1e-12 {
					t.Logf("payment %v prob %v vs payment %v prob %v",
						support[i].Payment, pmf[i], support[j].Payment, pmf[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWinnerSetMonotoneCandidates: raising the clearing price
// never makes a feasible price infeasible (candidate sets grow).
func TestPropertyFeasibilityMonotoneInPrice(t *testing.T) {
	r := rand.New(rand.NewSource(227))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		inst := randomInstance(rr)
		a, err := New(inst, WithPriceSet(inst.PriceGrid))
		if err != nil {
			return true
		}
		feasibleSeen := false
		for _, info := range a.Support() {
			if info.Feasible {
				feasibleSeen = true
			} else if feasibleSeen {
				t.Logf("price %v infeasible after a feasible cheaper price", info.Price)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGreedyCardinalityMonotone: with more candidates available
// (higher price), the greedy winner set never needs more workers than
// the largest-candidate-set cover needed... is NOT a theorem (greedy is
// not monotone), but the payment at the cheapest feasible price bounds
// R_greedy below cmax*N. Check the sane global payment bounds instead.
func TestPropertyPaymentWithinGlobalBounds(t *testing.T) {
	r := rand.New(rand.NewSource(229))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		inst := feasibleRandomInstance(rr)
		a, err := New(inst)
		if err != nil {
			return true
		}
		n := float64(len(inst.Workers))
		exp := a.ExpectedPayment()
		if exp <= 0 || exp > inst.CMax*n {
			t.Logf("expected payment %v outside (0, %v]", exp, inst.CMax*n)
			return false
		}
		for _, info := range a.Support() {
			if len(info.Winners) == 0 || float64(len(info.Winners)) > n {
				t.Logf("winner count %d out of range", len(info.Winners))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyOutcomeRejections(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	good := a.Run(rand.New(rand.NewSource(1)))

	bad := good
	bad.Winners = append([]int(nil), good.Winners...)
	bad.Winners[0] = 99
	if err := VerifyOutcome(inst, bad); !errors.Is(err, ErrOutcomeWinner) {
		t.Errorf("invalid index: got %v", err)
	}

	bad = good
	bad.Winners = append(append([]int(nil), good.Winners...), good.Winners[0])
	if err := VerifyOutcome(inst, bad); !errors.Is(err, ErrOutcomeWinner) {
		t.Errorf("duplicate: got %v", err)
	}

	bad = good
	bad.Price = inst.CMin - 1 // everyone's bid now exceeds the price
	if err := VerifyOutcome(inst, bad); !errors.Is(err, ErrOutcomeIR) {
		t.Errorf("IR: got %v", err)
	}

	bad = good
	bad.Winners = good.Winners[:1]
	bad.TotalPayment = bad.Price * 1
	if err := VerifyOutcome(inst, bad); !errors.Is(err, ErrOutcomeCoverage) {
		t.Errorf("coverage: got %v", err)
	}

	bad = good
	bad.TotalPayment = good.TotalPayment + 5
	if err := VerifyOutcome(inst, bad); !errors.Is(err, ErrOutcomePayment) {
		t.Errorf("payment: got %v", err)
	}

	// An outcome flagged infeasible at a price whose candidates cover
	// every task is rejected, with or without winners.
	infeasible := Outcome{Price: good.Price, Feasible: false}
	if err := VerifyOutcome(inst, infeasible); !errors.Is(err, ErrOutcomeCoverage) {
		t.Errorf("infeasible flag at feasible price %v: got %v", good.Price, err)
	}
	bad = Outcome{Price: 25, Winners: []int{3}, TotalPayment: 1e9, Feasible: false}
	if err := VerifyOutcome(inst, bad); !errors.Is(err, ErrOutcomeWinner) {
		t.Errorf("infeasible outcome with winners: got %v", err)
	}

	// At 10 only worker a bids, and a alone leaves task 2 uncovered: an
	// infeasible outcome there passes, whatever penalty it carries.
	infeasible = Outcome{Price: 10, TotalPayment: 100, Feasible: false}
	if err := VerifyOutcome(inst, infeasible); err != nil {
		t.Errorf("infeasible outcome at infeasible price 10: %v", err)
	}
}

// TestPropertyGainHeapRootIgnoresLayout: gainHeap.less is a strict
// total order (gain, then a unique rank), so after initHeap, popTop or
// a root update + siftDown the root is the unique maximum whatever the
// array's layout. Every permutation of the items therefore drives the
// same root sequence through the same operations, which keeps the lazy
// greedy's re-evaluation sequence, and GainEvaluations with it, a
// function of the candidates alone.
func TestPropertyGainHeapRootIgnoresLayout(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(7)
		items := make([]gainItem, n)
		for i, rank := range r.Perm(n) {
			// Gains from {1, 2, 3}: ties are common, so rank decides.
			items[i] = gainItem{worker: i, rank: rank, gain: float64(1 + r.Intn(3))}
		}
		opSeed := r.Int63()
		want := rootSequence(items, opSeed)
		perms := 0
		forEachPermutation(items, func(perm []gainItem) {
			perms++
			if got := rootSequence(perm, opSeed); !slices.Equal(got, want) {
				t.Fatalf("trial %d: layout %v gives root ranks %v, want %v", trial, perm, got, want)
			}
		})
		if perms != factorial(n) {
			t.Fatalf("trial %d: visited %d permutations, want %d", trial, perms, factorial(n))
		}
	}
}

// rootSequence heapifies a copy of items and records the root's rank
// after initHeap and after every operation until the heap empties. The
// seeded stream picks each operation: popTop, or the lazy greedy's
// stale-root step, which lowers the root's gain (never raises it, by
// submodularity) and sifts it down.
func rootSequence(items []gainItem, opSeed int64) []int {
	h := append(gainHeap(nil), items...)
	h.initHeap()
	ops := rand.New(rand.NewSource(opSeed))
	var seq []int
	for len(h) > 0 {
		seq = append(seq, h[0].rank)
		if ops.Intn(2) == 0 {
			h = h.popTop()
			continue
		}
		h[0].gain = float64(ops.Intn(int(h[0].gain) + 1))
		h.siftDown(0, len(h))
	}
	return seq
}

// forEachPermutation calls fn with every ordering of xs, permuting it
// in place (Heap's algorithm); fn must not retain its argument.
func forEachPermutation(xs []gainItem, fn func([]gainItem)) {
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			fn(xs)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				xs[i], xs[k-1] = xs[k-1], xs[i]
			} else {
				xs[0], xs[k-1] = xs[k-1], xs[0]
			}
		}
		gen(k - 1)
	}
	gen(len(xs))
}

func factorial(n int) int {
	f := 1
	for k := 2; k <= n; k++ {
		f *= k
	}
	return f
}
