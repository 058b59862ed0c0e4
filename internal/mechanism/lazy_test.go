package mechanism

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dphsrc/dphsrc/internal/stats"
)

// lazyAgainstEager draws once from Exponential.Sample and once from
// LazyExponential.Sample over lw, each from its own generator seeded
// with seed, and fails unless both return the same index and leave
// their generators in the same state. It returns how many log-weights
// the lazy draw asked for.
func lazyAgainstEager(t *testing.T, l *LazyExponential, lw []float64, seed int64) int {
	t.Helper()
	e, err := NewExponential(lw)
	if err != nil {
		t.Fatal(err)
	}
	re, rl := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want := e.Sample(re)
	asked := make([]bool, len(lw))
	calls := 0
	got := l.Sample(rl, len(lw), func(i int) float64 {
		if asked[i] {
			t.Fatalf("seed %d: log-weight %d asked twice", seed, i)
		}
		asked[i] = true
		calls++
		return lw[i]
	})
	if got != want {
		t.Fatalf("seed %d: lazy draw %d, eager draw %d over %v", seed, got, want, lw)
	}
	if !asked[got] {
		t.Fatalf("seed %d: drew %d without asking its log-weight", seed, got)
	}
	if a, b := rl.Int63(), re.Int63(); a != b {
		t.Fatalf("seed %d: generator states differ after the draw (%d vs %d)", seed, a, b)
	}
	return calls
}

// TestLazySampleMatchesSample: over random non-positive log-weights,
// including -0, exact zeros, repeated values and a spread wide enough
// that most Gumbels cannot win, the lazy draw returns Sample's index
// and consumes Sample's randomness, asking each log-weight at most
// once and fewer than all of them on wide spreads.
func TestLazySampleMatchesSample(t *testing.T) {
	r := rand.New(rand.NewSource(2601))
	var l LazyExponential
	pruned := 0
	for trial := 0; trial < 2000; trial++ {
		m := 1 + r.Intn(300)
		scale := []float64{0.01, 0.25, 2, 50}[r.Intn(4)]
		lw := make([]float64, m)
		for i := range lw {
			switch r.Intn(6) {
			case 0:
				lw[i] = math.Copysign(0, -1)
			case 1:
				lw[i] = 0
			case 2:
				if i > 0 {
					lw[i] = lw[i-1]
				}
			default:
				lw[i] = -scale * r.Float64()
			}
		}
		if lazyAgainstEager(t, &l, lw, int64(trial)) < m {
			pruned++
		}
	}
	if pruned < 1000 {
		t.Fatalf("only %d of 2000 draws skipped a log-weight", pruned)
	}
}

// TestLazySampleTieGoesToSmallerIndex: when a later-visited index ties
// an earlier-visited one exactly, the smaller index wins, as the first
// maximum does in Sample. The fixture gives index j the larger Gumbel
// and a log-weight that lands its value exactly on index i's Gumbel
// (i < j, lw_i = 0), and buries every other index, so the draw hinges
// on visiting i although its Gumbel only equals the best value so far,
// and on the tie rule once it does.
func TestLazySampleTieGoesToSmallerIndex(t *testing.T) {
	const m = 40
	var l LazyExponential
	ties := 0
	for seed := int64(0); seed < 400 && ties < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := make([]float64, m)
		for k := range g {
			g[k] = stats.Gumbel(r)
		}
		// The two largest Gumbels: j holds the largest, i the second.
		hi, lo := 0, 1
		if g[lo] > g[hi] {
			hi, lo = lo, hi
		}
		for k := 2; k < m; k++ {
			switch {
			case g[k] > g[hi]:
				hi, lo = k, hi
			case g[k] > g[lo]:
				lo = k
			}
		}
		if lo > hi {
			continue // the tie would go to the first-visited index anyway
		}
		i, j := lo, hi
		d := g[i] - g[j]
		if d+g[j] != g[i] {
			continue
		}
		lw := make([]float64, m)
		for k := range lw {
			lw[k] = -1e6
		}
		lw[i], lw[j] = 0, d
		lazyAgainstEager(t, &l, lw, seed)
		e, _ := NewExponential(lw)
		if got := e.Sample(rand.New(rand.NewSource(seed))); got != i {
			t.Fatalf("seed %d: fixture: Sample drew %d, want the tie's smaller index %d", seed, got, i)
		}
		ties++
	}
	if ties < 20 {
		t.Fatalf("only %d exact-tie fixtures", ties)
	}
}
