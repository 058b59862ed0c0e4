package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
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
// across a chain of instances of varying shape, failed builds included.
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

// TestRebuildErrorThenRecovers: a failed Rebuild leaves the auction as
// it was, and the next successful Rebuild matches New.
func TestRebuildErrorThenRecovers(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst)
	fresh := mustAuction(t, inst)

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
	supportEqual(t, a.Support(), fresh.Support())
	pmfEqual(t, a.PMF(), fresh.PMF())

	if err := a.Rebuild(inst); err != nil {
		t.Fatalf("recovery Rebuild: %v", err)
	}
	supportEqual(t, a.Support(), fresh.Support())
	pmfEqual(t, a.PMF(), fresh.PMF())
}

// TestRebuildOfDerivedKeepsBase: rebuilding an auction derived via
// Reweight must not corrupt the base auction whose winner sets it
// shares.
func TestRebuildOfDerivedKeepsBase(t *testing.T) {
	instA, instB := twoFeasibleInstances(17)
	base := mustAuction(t, instA)
	derived, err := base.Reweight(0.3)
	if err != nil {
		t.Fatal(err)
	}

	// Deep snapshot of the base support before the derived rebuild.
	snap := supportSnapshot(base.Support())
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

// TestRebuildOfBaseKeepsDerived: a Rebuild invalidates nothing handed
// out before it. An auction derived from the base via Reweight, and the
// Support slice the base returned, keep every value across a Rebuild of
// the base on another instance.
func TestRebuildOfBaseKeepsDerived(t *testing.T) {
	instA, instB := twoFeasibleInstances(29)
	base := mustAuction(t, instA)
	derived, err := base.Reweight(0.3)
	if err != nil {
		t.Fatal(err)
	}
	snap := supportSnapshot(derived.Support())
	pmfSnap := append([]float64(nil), derived.PMF()...)
	baseSupport := base.Support()
	baseSnap := supportSnapshot(baseSupport)

	if err := base.Rebuild(instB); err != nil {
		t.Fatalf("base Rebuild: %v", err)
	}
	supportEqual(t, derived.Support(), snap)
	pmfEqual(t, derived.PMF(), pmfSnap)
	supportEqual(t, baseSupport, baseSnap)
	if got := derived.Instance(); !reflect.DeepEqual(got.Workers, instA.Workers) || !reflect.DeepEqual(got.Skills, instA.Skills) {
		t.Fatal("the base Rebuild overwrote the derived auction's instance")
	}

	fresh := mustAuction(t, instB)
	supportEqual(t, base.Support(), fresh.Support())
	pmfEqual(t, base.PMF(), fresh.PMF())
}

// twoFeasibleInstances draws two random instances that New accepts.
func twoFeasibleInstances(seed int64) (Instance, Instance) {
	r := rand.New(rand.NewSource(seed))
	draw := func() Instance {
		for {
			inst := feasibleRandomInstance(r)
			if _, err := New(inst); err == nil {
				return inst
			}
		}
	}
	return draw(), draw()
}

// supportSnapshot deep-copies a support, winner sets included.
func supportSnapshot(support []PriceInfo) []PriceInfo {
	var snap []PriceInfo
	for _, info := range support {
		info.Winners = append([]int(nil), info.Winners...)
		snap = append(snap, info)
	}
	return snap
}

// TestRebuildTelemetryCounters: every build, New or Rebuild, counts one
// auction construction.
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
}

// TestBuildReportsOneCoverPerCount pins an Auction build's cover
// reporting: one core.cover event and one mcs_core_cover_seconds
// observation per distinct candidate count, in ascending count order,
// including the counts below the feasibility floor that the default
// support drops. tinyInstance's bids (10, 12, 14, 20) split its 5..25
// grid into counts 0-4, and only counts 3 and 4 cover every task; the
// explicit price set {6, 8, 20, 22} holds counts 0 and 4. A Rebuild
// reports exactly what New does.
func TestBuildReportsOneCoverPerCount(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []Option
		counts   []int64
		feasible []bool
		support  int
	}{
		{"grid", nil, []int64{0, 1, 2, 3, 4}, []bool{false, false, false, true, true}, 12},
		{"price-set", []Option{WithPriceSet([]float64{6, 8, 20, 22})}, []int64{0, 4}, []bool{false, true}, 4},
	} {
		reg := telemetry.NewRegistry()
		ev := evlog.New()
		a := mustAuction(t, tinyInstance(), append(tc.opts, WithTelemetry(reg), WithEventLog(ev))...)
		if err := a.Rebuild(tinyInstance()); err != nil {
			t.Fatalf("%s: Rebuild: %v", tc.name, err)
		}
		if got := len(a.Support()); got != tc.support {
			t.Fatalf("%s: support size %d, want %d", tc.name, got, tc.support)
		}
		var buf bytes.Buffer
		if err := ev.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		events, err := evlog.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		var feasible []bool
		builds := 0
		for _, e := range events {
			switch e.Name {
			case "core.cover":
				c, _ := e.Int("candidates")
				f, _ := e.Bool("feasible")
				counts, feasible = append(counts, c), append(feasible, f)
			case "core.build":
				builds++
			}
		}
		wantCounts := append(append([]int64(nil), tc.counts...), tc.counts...)
		wantFeasible := append(append([]bool(nil), tc.feasible...), tc.feasible...)
		if builds != 2 || !slices.Equal(counts, wantCounts) || !slices.Equal(feasible, wantFeasible) {
			t.Fatalf("%s: %d builds covering counts %v (feasible %v), want 2 builds covering %v (feasible %v) each",
				tc.name, builds, counts, feasible, tc.counts, tc.feasible)
		}
		if got := reg.Histogram("mcs_core_cover_seconds", "", nil).Count(); got != int64(len(wantCounts)) {
			t.Fatalf("%s: %d cover_seconds observations, want %d", tc.name, got, len(wantCounts))
		}
	}
}
