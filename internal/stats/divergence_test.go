package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomPMF(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = r.Float64() + 1e-3
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func TestValidatePMF(t *testing.T) {
	if err := ValidatePMF([]float64{0.25, 0.75}); err != nil {
		t.Errorf("valid PMF rejected: %v", err)
	}
	cases := [][]float64{
		nil,
		{0.5, 0.6},
		{-0.1, 1.1},
		{math.NaN(), 1},
		{math.Inf(1)},
	}
	for i, c := range cases {
		if err := ValidatePMF(c); !errors.Is(err, ErrNotPMF) {
			t.Errorf("case %d: want ErrNotPMF, got %v", i, err)
		}
	}
}

func TestKLDivergenceIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		p := randomPMF(r, 2+r.Intn(20))
		d, err := KLDivergence(p, p)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("KL(p||p) = %v, want 0", d)
		}
	}
}

func TestKLDivergenceNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(20)
		p := randomPMF(rr, n)
		q := randomPMF(rr, n)
		d, err := KLDivergence(p, q)
		return err == nil && d >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestKLDivergenceKnownValue(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	want := 0.5*math.Log(2) + 0.5*math.Log(0.5/0.75)
	got, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("KL = %v, want %v", got, want)
	}
}

func TestKLDivergenceInfiniteWhenSupportShrinks(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	got, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("KL = %v, want +Inf", got)
	}
}

func TestKLDivergenceMismatch(t *testing.T) {
	if _, err := KLDivergence([]float64{1}, []float64{0.5, 0.5}); !errors.Is(err, ErrPMFMismatch) {
		t.Errorf("want ErrPMFMismatch, got %v", err)
	}
}

func TestMaxLogRatio(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	got, err := MaxLogRatio(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("max log ratio = %v, want %v", got, want)
	}
	inf, err := MaxLogRatio([]float64{1, 0}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(inf, 1) {
		t.Errorf("disjoint support: got %v, want +Inf", inf)
	}
}

func TestMaxLogRatioSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(10)
		p := randomPMF(r, n)
		q := randomPMF(r, n)
		a, _ := MaxLogRatio(p, q)
		b, _ := MaxLogRatio(q, p)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("MaxLogRatio not symmetric: %v vs %v", a, b)
		}
	}
}

func TestTotalVariation(t *testing.T) {
	got, err := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("TV = %v, want 1", got)
	}
	same, _ := TotalVariation([]float64{0.3, 0.7}, []float64{0.3, 0.7})
	if same != 0 {
		t.Errorf("TV of identical = %v, want 0", same)
	}
}
