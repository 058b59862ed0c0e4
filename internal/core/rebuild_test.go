package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// supportEqual compares two supports element-wise, including winner
// sets (order-sensitive) and exact payments.
func supportEqual(t *testing.T, got, want []PriceInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("support size %d, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k].Price != want[k].Price || got[k].Payment != want[k].Payment || got[k].Feasible != want[k].Feasible {
			t.Fatalf("support[%d] = %+v, want %+v", k, got[k], want[k])
		}
		if len(got[k].Winners) != len(want[k].Winners) {
			t.Fatalf("support[%d] winners %v, want %v", k, got[k].Winners, want[k].Winners)
		}
		for i := range want[k].Winners {
			if got[k].Winners[i] != want[k].Winners[i] {
				t.Fatalf("support[%d] winners %v, want %v", k, got[k].Winners, want[k].Winners)
			}
		}
	}
}

// pmfEqual requires bitwise-identical PMFs.
func pmfEqual(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pmf size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pmf[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRebuildMatchesNew pins the contract that Rebuild reconstructs an
// auction bitwise-identically to a fresh New over the same instance,
// across a chain of instances of varying shape (so every buffer-resize
// path in the build state is exercised, growing and shrinking).
func TestRebuildMatchesNew(t *testing.T) {
	for _, rule := range []SelectionRule{RuleGreedy, RuleGreedyNaive, RuleStatic} {
		r := rand.New(rand.NewSource(91))
		var reused *Auction
		rebuilt := 0
		for trial := 0; trial < 25; trial++ {
			inst := feasibleRandomInstance(r)
			fresh, err := New(inst, WithRule(rule))
			if errors.Is(err, ErrInfeasible) {
				if reused != nil {
					if rerr := reused.Rebuild(inst); !errors.Is(rerr, ErrInfeasible) {
						t.Fatalf("rule %v: Rebuild err %v, New err %v", rule, rerr, err)
					}
					reused = nil // unusable until a successful rebuild; restart chain
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if reused == nil {
				reused = mustAuction(t, feasibleRandomInstance(rand.New(rand.NewSource(7))), WithRule(rule))
			}
			if err := reused.Rebuild(inst); err != nil {
				t.Fatalf("rule %v trial %d: Rebuild: %v", rule, trial, err)
			}
			rebuilt++
			supportEqual(t, reused.Support(), fresh.Support())
			pmfEqual(t, reused.PMF(), fresh.PMF())
			if reused.GainEvaluations() != fresh.GainEvaluations() {
				t.Fatalf("rule %v: gain evals %d, want %d", rule, reused.GainEvaluations(), fresh.GainEvaluations())
			}
			if reused.ExpectedPayment() != fresh.ExpectedPayment() {
				t.Fatalf("rule %v: expected payment %v, want %v", rule, reused.ExpectedPayment(), fresh.ExpectedPayment())
			}
			// Sampling must follow the identical PMF: same seed, same
			// outcome.
			ra, rb := rand.New(rand.NewSource(int64(trial))), rand.New(rand.NewSource(int64(trial)))
			oa, ob := reused.Run(ra), fresh.Run(rb)
			if oa.Price != ob.Price || oa.TotalPayment != ob.TotalPayment || len(oa.Winners) != len(ob.Winners) {
				t.Fatalf("rule %v: outcome %+v, want %+v", rule, oa, ob)
			}
		}
		if rebuilt < 5 {
			t.Fatalf("rule %v: only %d feasible rebuild trials", rule, rebuilt)
		}
	}
}

// TestRebuildKeepsExplicitPriceSet pins that a WithPriceSet support —
// the fixed set the DP guarantee needs — survives Rebuild unchanged.
func TestRebuildKeepsExplicitPriceSet(t *testing.T) {
	support := []float64{6, 8, 20, 22}
	a := mustAuction(t, tinyInstance(), WithPriceSet(support))
	r := rand.New(rand.NewSource(5))
	inst := feasibleRandomInstance(r)
	if err := a.Rebuild(inst); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	prices := a.SupportPrices()
	if len(prices) != len(support) {
		t.Fatalf("support %v, want %v", prices, support)
	}
	for i := range support {
		if prices[i] != support[i] {
			t.Fatalf("support %v, want %v", prices, support)
		}
	}
	fresh := mustAuction(t, inst, WithPriceSet(support))
	supportEqual(t, a.Support(), fresh.Support())
	pmfEqual(t, a.PMF(), fresh.PMF())
}

// TestRebuildErrorThenRecovers: a failed Rebuild leaves the auction
// unusable, and the next successful Rebuild fully restores it.
func TestRebuildErrorThenRecovers(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)

	bad := tinyInstance()
	bad.Epsilon = -1
	if err := a.Rebuild(bad); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("Rebuild(bad) err = %v, want ErrBadEpsilon", err)
	}

	infeasible := tinyInstance()
	for i := range infeasible.Skills {
		for j := range infeasible.Skills[i] {
			infeasible.Skills[i][j] = 0.5 // zero quality: nothing covers
		}
	}
	if err := a.Rebuild(infeasible); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Rebuild(infeasible) err = %v, want ErrInfeasible", err)
	}

	if err := a.Rebuild(inst); err != nil {
		t.Fatalf("recovery Rebuild: %v", err)
	}
	fresh := mustAuction(t, inst)
	supportEqual(t, a.Support(), fresh.Support())
	pmfEqual(t, a.PMF(), fresh.PMF())
}

// TestRebuildDetachesReweightDerived: rebuilding an auction derived via
// Reweight must not corrupt the base auction whose winner sets it
// shares — the derived auction detaches onto fresh buffers first.
func TestRebuildDetachesReweightDerived(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	draw := func() Instance {
		for {
			inst := feasibleRandomInstance(r)
			if _, err := New(inst); err == nil {
				return inst
			}
		}
	}
	instA, instB := draw(), draw()
	base := mustAuction(t, instA)
	derived, err := base.Reweight(0.3)
	if err != nil {
		t.Fatal(err)
	}

	// Deep snapshot of the base support before the derived rebuild.
	var snap []PriceInfo
	for _, info := range base.Support() {
		info.Winners = append([]int(nil), info.Winners...)
		snap = append(snap, info)
	}
	basePMF := append([]float64(nil), base.PMF()...)

	if err := derived.Rebuild(instB); err != nil {
		t.Fatalf("derived Rebuild: %v", err)
	}
	supportEqual(t, base.Support(), snap)
	pmfEqual(t, base.PMF(), basePMF)
	if got := base.Instance(); !reflect.DeepEqual(got.Workers, instA.Workers) || !reflect.DeepEqual(got.Skills, instA.Skills) {
		t.Fatal("the derived Rebuild overwrote the base auction's instance")
	}

	fresh := mustAuction(t, instB)
	supportEqual(t, derived.Support(), fresh.Support())
	pmfEqual(t, derived.PMF(), fresh.PMF())
}

// TestRebuildTelemetryCounters: every build (New or Rebuild) counts one
// auction construction, and rebuilds additionally count into
// mcs_core_rebuilds_total.
func TestRebuildTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	inst := tinyInstance()
	a := mustAuction(t, inst, WithTelemetry(reg))
	for i := 0; i < 3; i++ {
		if err := a.Rebuild(inst); err != nil {
			t.Fatalf("Rebuild %d: %v", i, err)
		}
	}
	if got := reg.Counter("mcs_core_auctions_total", "").Value(); got != 4 {
		t.Fatalf("auctions_total = %d, want 4 (1 New + 3 Rebuilds)", got)
	}
	if got := reg.Counter("mcs_core_rebuilds_total", "").Value(); got != 3 {
		t.Fatalf("rebuilds_total = %d, want 3", got)
	}
}
