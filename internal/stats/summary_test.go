package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Population variance of this classic dataset is 4; the unbiased
	// sample variance is 4*8/7.
	if got, want := a.Variance(), 4.0*8/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, want)
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 {
		t.Errorf("single observation: mean=%v var=%v", a.Mean(), a.Variance())
	}
}

func TestAccumulatorMatchesTwoPass(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormFloat64()*100 + 1000
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-wantVar) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 100, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
	med := Quantile(xs, 0.5)
	if med < 3 || med > 4 {
		t.Errorf("median = %v, want in [3,4]", med)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of empty should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 3 || xs[7] != 6 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q > 1")
		}
	}()
	Quantile([]float64{1}, 1.5)
}
