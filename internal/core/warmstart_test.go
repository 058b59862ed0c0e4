package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bidSorted returns the worker indices in the build's candidate order:
// ascending bid, index tie-break.
func bidSorted(inst *Instance) []int {
	idx := make([]int, len(inst.Workers))
	for i := range idx {
		idx[i] = i
	}
	sort.Sort(&bidOrder{idx: idx, workers: inst.Workers})
	return idx
}

// tieHeavyInstance draws a random instance built to make gains tie
// between bidders admitted at different candidate counts: bids on a
// coarse grid (duplicates, split only by index), three shared bundles,
// and two skill levels applied to every task.
func tieHeavyInstance(r *rand.Rand) Instance {
	inst := feasibleRandomInstance(r)
	k := inst.NumTasks
	var patterns [3][]int
	for p := range patterns {
		for j := 0; j < k; j++ {
			if j == p%k || r.Intn(2) == 0 {
				patterns[p] = append(patterns[p], j)
			}
		}
	}
	for i := range inst.Workers {
		inst.Workers[i].Bundle = append([]int(nil), patterns[r.Intn(len(patterns))]...)
		inst.Workers[i].Bid = float64(10 + 8*r.Intn(6))
		theta := 0.9
		if r.Intn(2) == 0 {
			theta = 0.95
		}
		for j := range inst.Skills[i] {
			inst.Skills[i][j] = theta
		}
	}
	return inst
}

// drawInstance alternates the tie-heavy and the plain random shapes.
func drawInstance(r *rand.Rand, trial int) Instance {
	if trial%2 == 0 {
		return tieHeavyInstance(r)
	}
	return feasibleRandomInstance(r)
}

// sameCover reports whether two winner lists are equal, order-sensitively.
func sameCover(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWarmStartChainMatchesNaive drives greedyCoverFrom along every
// prefix of the bid order, chaining each count off the one before
// whether or not that count could be covered, so the replay also runs
// out of trajectory with demand left. Every count's winner set and
// coverage flag must equal greedyCoverNaive's, order-sensitively. At
// random points a standalone greedyCover over an unrelated candidate
// list reuses the scratch; it must come out cold, and the chain then
// restarts cold.
func TestWarmStartChainMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1201))
	replays := 0
	for trial := 0; trial < 300; trial++ {
		inst := drawInstance(r, trial)
		var cp coverProblem
		cp.reset(&inst)
		sorted := bidSorted(&inst)
		warm, oracle := &coverScratch{}, &coverScratch{}
		prev := 0
		for count := 1; count <= len(sorted); count++ {
			cands := sorted[:count]
			got, gotOK := cp.greedyCoverFrom(warm, cands, prev)
			want, wantOK := cp.greedyCoverNaive(oracle, cands)
			if !sameCover(got, want) || gotOK != wantOK {
				t.Fatalf("trial %d count %d (warm from %d): got %v/%v, naive %v/%v",
					trial, count, prev, got, gotOK, want, wantOK)
			}
			if prev > 0 {
				replays++
			}
			prev = count
			if r.Intn(4) == 0 {
				other := sorted[count/2:]
				got, gotOK := cp.greedyCover(warm, other)
				want, wantOK := cp.greedyCoverNaive(oracle, other)
				if !sameCover(got, want) || gotOK != wantOK {
					t.Fatalf("trial %d: standalone cover after count %d replayed stale state: got %v, naive %v",
						trial, count, got, want)
				}
				prev = 0
			}
		}
	}
	if replays < 500 {
		t.Fatalf("only %d warm-started covers exercised", replays)
	}
}

// TestWarmStartAuctionMatchesNaive: whole builds, whose covers chain
// through coverByCount, match the naive rule price by price, with
// bitwise-equal PMFs, over the default grid and over WithPriceSet
// supports whose cheapest prices are infeasible (so every chain opens
// with counts that break it). The same instances are also fed
// through one reused auction's Rebuild, so the chain of builds passes
// through infeasible instances too. Feasibility is monotone in the
// count, so within one build infeasible counts can only open a chain;
// infeasible prices and failed builds are counted as breaks.
func TestWarmStartAuctionMatchesNaive(t *testing.T) {
	priceSet := PriceGridRange(5, 60, 1)
	optSets := map[string][]Option{
		"grid":      nil,
		"price-set": {WithPriceSet(priceSet)},
	}
	// The first build's instance must admit the price set: cmax 60.
	first := tinyInstance()
	first.CMax = 60
	for name, opts := range optSets {
		r := rand.New(rand.NewSource(1203))
		reused := mustAuction(t, first, opts...)
		built, breaks := 0, 0
		for trial := 0; trial < 80; trial++ {
			inst := drawInstance(r, trial)
			naive, errNaive := New(inst, append(opts, WithRule(RuleGreedyNaive))...)
			lazy, errLazy := New(inst, opts...)
			errRebuild := reused.Rebuild(inst)
			if (errNaive == nil) != (errLazy == nil) || (errNaive == nil) != (errRebuild == nil) {
				t.Fatalf("%s trial %d: errors naive %v, lazy %v, rebuild %v", name, trial, errNaive, errLazy, errRebuild)
			}
			if errNaive != nil {
				if !errors.Is(errNaive, ErrInfeasible) {
					t.Fatal(errNaive)
				}
				breaks++
				continue
			}
			for _, info := range lazy.Support() {
				if !info.Feasible {
					breaks++
				}
			}
			supportEqual(t, lazy.Support(), naive.Support())
			pmfEqual(t, lazy.PMF(), naive.PMF())
			supportEqual(t, reused.Support(), naive.Support())
			built++
		}
		if built < 20 || breaks == 0 {
			t.Fatalf("%s: %d builds and %d chain breaks; want both", name, built, breaks)
		}
	}
}

// TestWarmStartExcludesReplayedWinners is the duplicate-winner
// regression. Worker a wins step 0 and, after its own apply, still has
// the largest gain of anyone; the replay diverges at step 1 when the
// newly admitted n beats b's recorded gain. The restart heap must leave
// a out, or the lazy greedy picks it a second time.
func TestWarmStartExcludesReplayedWinners(t *testing.T) {
	inst := Instance{
		NumTasks:   2,
		Thresholds: []float64{0.3, 0.3},
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  PriceGridRange(10, 20, 1),
	}
	add := func(bid, theta float64) {
		inst.Workers = append(inst.Workers, Worker{Bundle: []int{0, 1}, Bid: bid})
		inst.Skills = append(inst.Skills, []float64{theta, theta})
	}
	add(10, 0.95) // a
	for bid := 11.0; bid <= 15; bid++ {
		add(bid, 0.8) // b..f
	}
	add(20, 0.9) // n

	var cp coverProblem
	cp.reset(&inst)
	s := &coverScratch{}
	sorted := bidSorted(&inst)
	if f := cp.floor(s, sorted); f != 6 {
		t.Fatalf("fixture: cheapest feasible count %d, want 6", f)
	}
	// The premise: after a's apply, a out-gains n, and n out-gains the
	// step-1 winner b.
	residual := append([]float64(nil), cp.demands...)
	cp.apply(0, residual)
	ga, gn, gb := cp.gain(0, residual), cp.gain(6, residual), cp.gain(1, residual)
	if !(ga > gn && gn > gb) {
		t.Fatalf("fixture: gains a=%v n=%v b=%v, want a > n > b", ga, gn, gb)
	}

	a := mustAuction(t, inst)
	naive := mustAuction(t, inst, WithRule(RuleGreedyNaive))
	supportEqual(t, a.Support(), naive.Support())
	top := a.Support()[len(a.Support())-1]
	if want := []int{0, 6, 1, 2, 3}; !sameCover(top.Winners, want) {
		t.Fatalf("winners at %v = %v, want %v", top.Price, top.Winners, want)
	}
}

// TestWarmStartStrictGainAtTheUlp pins the replay's comparison at its
// edge: a newly admitted bidder whose gain equals the recorded winner's
// loses the tie on rank, and one whose gain is greater by a single ulp
// takes the step.
func TestWarmStartStrictGainAtTheUlp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		theta float64
		want  []int
	}{
		{"tie", 0.75, []int{0, 1}},
		{"one-ulp-greater", math.Nextafter(0.75, 1), []int{1, 0}},
	} {
		inst := Instance{
			NumTasks:   1,
			Thresholds: []float64{0.3},
			Epsilon:    0.5,
			CMin:       5,
			CMax:       30,
			PriceGrid:  []float64{30},
			Workers:    []Worker{{Bundle: []int{0}, Bid: 10}, {Bundle: []int{0}, Bid: 11}},
			Skills:     [][]float64{{0.75}, {tc.theta}},
		}
		var cp coverProblem
		cp.reset(&inst)
		s, oracle := &coverScratch{}, &coverScratch{}
		cands := []int{0, 1}
		cp.greedyCoverFrom(s, cands[:1], 0)
		got, gotOK := cp.greedyCoverFrom(s, cands, 1)
		want, wantOK := cp.greedyCoverNaive(oracle, cands)
		if !sameCover(want, tc.want) {
			t.Fatalf("%s: fixture: naive picks %v, want %v", tc.name, want, tc.want)
		}
		if !sameCover(got, want) || gotOK != wantOK {
			t.Fatalf("%s: warm-started cover %v/%v, naive %v/%v", tc.name, got, gotOK, want, wantOK)
		}
	}
}
