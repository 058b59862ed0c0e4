package core

import (
	"math/rand"
	"testing"
)

// allocInstance is a fixed mid-size feasible instance for allocation
// ceilings: large enough that per-worker or per-count allocations would
// blow past the ceilings immediately, small enough to keep the test
// fast.
func allocInstance() Instance {
	r := rand.New(rand.NewSource(412))
	for {
		inst := feasibleRandomInstance(r)
		if _, err := New(inst); err == nil {
			return inst
		}
	}
}

// TestAuctionNewAllocCeiling is the regression gate for the hot-path
// rewrite: New must stay within a small constant allocation budget
// (scratch buffers, flattened instance copy, mechanism) instead of the
// ~2800 allocs/op the per-candidate-count allocations used to cost.
// The ISSUE-9 acceptance ceiling is 300; the structural budget is ~40.
func TestAuctionNewAllocCeiling(t *testing.T) {
	inst := allocInstance()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Fatalf("New allocates %.0f/op, ceiling 300", allocs)
	}
}

// TestAuctionRebuildAllocCeiling: a warm Rebuild reuses every build
// buffer, so only the mechanism's weight copies remain.
func TestAuctionRebuildAllocCeiling(t *testing.T) {
	inst := allocInstance()
	a := mustAuction(t, inst)
	if err := a.Rebuild(inst); err != nil { // warm every buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.Rebuild(inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Rebuild allocates %.0f/op, ceiling 16", allocs)
	}
}

// TestGreedyCoverWarmScratchAllocFree: with a warm coverScratch the
// greedy cover inner loop — the single hottest routine in the repo —
// must not allocate at all, cold or warm-started along a chain of
// ascending candidate counts (the trajectory and the replay marks live
// in the scratch).
func TestGreedyCoverWarmScratchAllocFree(t *testing.T) {
	inst := allocInstance()
	var cp coverProblem
	cp.reset(&inst)
	cands := make([]int, len(inst.Workers))
	for i := range cands {
		cands[i] = i
	}
	s := &coverScratch{}
	if _, ok := cp.greedyCover(s, cands); !ok { // warm the scratch
		t.Fatal("alloc instance not coverable")
	}
	allocs := testing.AllocsPerRun(50, func() {
		cp.greedyCover(s, cands)
	})
	if allocs != 0 {
		t.Fatalf("warm greedyCover allocates %.1f/op, want 0", allocs)
	}
	n := len(cands)
	chain := func() {
		cp.greedyCoverFrom(s, cands[:n-2], 0)
		cp.greedyCoverFrom(s, cands[:n-1], n-2)
		cp.greedyCoverFrom(s, cands, n-1)
	}
	chain() // warm the trajectory and replay marks
	if allocs := testing.AllocsPerRun(50, chain); allocs != 0 {
		t.Fatalf("warm-started greedyCover chain allocates %.1f/op, want 0", allocs)
	}
	if f := cp.floor(s, cands); f > n {
		t.Fatalf("floor %d over %d candidates disagrees with greedyCover", f, n)
	}
	if allocs := testing.AllocsPerRun(50, func() { cp.floor(s, cands) }); allocs != 0 {
		t.Fatalf("warm floor allocates %.1f/op, want 0", allocs)
	}
}
