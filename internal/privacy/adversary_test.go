package privacy

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/stats"
)

func TestNewDistinguisherValidation(t *testing.T) {
	if _, err := NewDistinguisher([]float64{1}, []float64{0.5, 0.5}); !errors.Is(err, ErrSupportMismatch) {
		t.Errorf("mismatch: got %v", err)
	}
	if _, err := NewDistinguisher([]float64{0.5, 0.6}, []float64{0.5, 0.5}); !errors.Is(err, stats.ErrNotPMF) {
		t.Errorf("non-PMF: got %v", err)
	}
}

func TestExactAdvantageIsHalfTV(t *testing.T) {
	p := []float64{0.8, 0.2}
	q := []float64{0.2, 0.8}
	d, err := NewDistinguisher(p, q)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := stats.TotalVariation(p, q)
	if got, want := d.ExactAdvantage(), tv/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("advantage = %v, want TV/2 = %v", got, want)
	}
}

func TestExactAdvantageIdenticalHypotheses(t *testing.T) {
	p := []float64{0.3, 0.7}
	d, err := NewDistinguisher(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if adv := d.ExactAdvantage(); adv != 0 {
		t.Errorf("identical hypotheses advantage %v, want 0", adv)
	}
}

func TestSimulateMatchesExactForOneObservation(t *testing.T) {
	p := []float64{0.7, 0.1, 0.2}
	q := []float64{0.2, 0.5, 0.3}
	d, err := NewDistinguisher(p, q)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	sim, err := d.SimulateAdvantage(1, 200000, r)
	if err != nil {
		t.Fatal(err)
	}
	if exact := d.ExactAdvantage(); math.Abs(sim-exact) > 0.01 {
		t.Errorf("simulated %v vs exact %v", sim, exact)
	}
}

func TestAdvantageGrowsWithObservations(t *testing.T) {
	p := []float64{0.6, 0.4}
	q := []float64{0.4, 0.6}
	d, err := NewDistinguisher(p, q)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	one, err := d.SimulateAdvantage(1, 60000, r)
	if err != nil {
		t.Fatal(err)
	}
	many, err := d.SimulateAdvantage(25, 60000, r)
	if err != nil {
		t.Fatal(err)
	}
	if many <= one {
		t.Errorf("advantage did not grow with observations: 1 obs %v vs 25 obs %v", one, many)
	}
}

func TestSimulateAdvantageValidation(t *testing.T) {
	d, _ := NewDistinguisher([]float64{1}, []float64{1})
	if _, err := d.SimulateAdvantage(0, 10, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero observations: got %v", err)
	}
	if _, err := d.SimulateAdvantage(1, 0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero trials: got %v", err)
	}
}

func TestAdvantageBound(t *testing.T) {
	if AdvantageBound(0) != 0 || AdvantageBound(-1) != 0 {
		t.Error("non-positive eps should bound advantage at 0")
	}
	// eps -> infinity: bound -> 1/2.
	if b := AdvantageBound(50); math.Abs(b-0.5) > 1e-9 {
		t.Errorf("large-eps bound %v, want ~0.5", b)
	}
	// Monotone in eps.
	prev := 0.0
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2, 5} {
		b := AdvantageBound(eps)
		if b <= prev {
			t.Fatalf("bound not increasing at eps=%v", eps)
		}
		prev = b
	}
}

// TestMechanismAdvantageWithinDPBound is the integration check: for
// DP-hSRC-generated adjacent PMFs, the Bayes-optimal attacker's exact
// advantage respects the epsilon bound.
func TestMechanismAdvantageWithinDPBound(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 60 && checked < 20; trial++ {
		inst := randomFeasibleInstance(r)
		if inst.NumTasks == 0 {
			continue
		}
		support := inst.PriceGrid
		a, err := core.New(inst, core.WithPriceSet(support))
		if err != nil {
			continue
		}
		adj := inst.Clone()
		adj.Workers[r.Intn(len(adj.Workers))].Bid = inst.CMin
		b, err := core.New(adj, core.WithPriceSet(support))
		if err != nil {
			continue
		}
		d, err := NewDistinguisher(a.PMF(), b.PMF())
		if err != nil {
			t.Fatal(err)
		}
		if adv, bound := d.ExactAdvantage(), AdvantageBound(inst.Epsilon); adv > bound+1e-9 {
			t.Fatalf("advantage %v exceeds DP bound %v at eps=%v", adv, bound, inst.Epsilon)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// randomFeasibleInstance draws a small random instance; NumTasks==0
// signals a generation miss.
func randomFeasibleInstance(r *rand.Rand) core.Instance {
	n := 8 + r.Intn(8)
	k := 2 + r.Intn(3)
	inst := core.Instance{
		NumTasks:   k,
		Thresholds: make([]float64, k),
		Workers:    make([]core.Worker, n),
		Skills:     make([][]float64, n),
		Epsilon:    0.1 + r.Float64(),
		CMin:       10,
		CMax:       60,
		PriceGrid:  core.PriceGridRange(20, 60, 2),
	}
	for j := range inst.Thresholds {
		inst.Thresholds[j] = 0.2 + 0.2*r.Float64()
	}
	for i := 0; i < n; i++ {
		inst.Workers[i] = core.Worker{
			Bundle: []int{r.Intn(k)},
			Bid:    10 + math.Floor(r.Float64()*500)/10,
		}
		extra := r.Intn(k)
		if extra != inst.Workers[i].Bundle[0] {
			if extra < inst.Workers[i].Bundle[0] {
				inst.Workers[i].Bundle = []int{extra, inst.Workers[i].Bundle[0]}
			} else {
				inst.Workers[i].Bundle = append(inst.Workers[i].Bundle, extra)
			}
		}
		row := make([]float64, k)
		for j := range row {
			row[j] = 0.7 + 0.25*r.Float64()
		}
		inst.Skills[i] = row
	}
	return inst
}

func TestRoundsToDistinguish(t *testing.T) {
	k, err := RoundsToDistinguish(0.1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// AdvantageBound(k*0.1) must cross 0.25 exactly at k, not before.
	if AdvantageBound(float64(k)*0.1) < 0.25 {
		t.Errorf("k=%d too small", k)
	}
	if k > 1 && AdvantageBound(float64(k-1)*0.1) >= 0.25 {
		t.Errorf("k=%d not minimal", k)
	}
	for _, bad := range []struct{ eps, target float64 }{
		{0, 0.2}, {0.1, 0}, {0.1, 0.5}, {-1, 0.2},
	} {
		if _, err := RoundsToDistinguish(bad.eps, bad.target); !errors.Is(err, ErrBadArgument) {
			t.Errorf("eps=%v target=%v: got %v", bad.eps, bad.target, err)
		}
	}
}
