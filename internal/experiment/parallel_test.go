package experiment

import (
	"reflect"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// TestParallelSweepByteIdenticalToSequential pins the tentpole
// determinism contract: fanning sweep points and per-point instances
// out on the pool must not change a single byte of the result, because
// seeds are pre-derived in the sequential order and aggregation walks
// the same order.
func TestParallelSweepByteIdenticalToSequential(t *testing.T) {
	mk := func(parallelism int) Config {
		return Config{
			Seed:        7,
			Scale:       0.08,
			Instances:   2,
			Parallelism: parallelism,
		}
	}
	xs := []int{200, 260, 320}
	seq, err := paymentSweep("figX", "t", "x", xs, workload.SettingIV, false, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := paymentSweep("figX", "t", "x", xs, workload.SettingIV, false, mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestParallelFigure5ByteIdenticalToSequential(t *testing.T) {
	mk := func(parallelism int) Config {
		return Config{Seed: 7, Scale: 0.08, Parallelism: parallelism}
	}
	seq, err := Figure5(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure5(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Figure5 diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestParallelTable2StructureMatchesSequential checks the Table II
// sweep measures the same instances regardless of parallelism: labels
// and proof status are deterministic, only wall-clock timings float.
func TestParallelTable2StructureMatchesSequential(t *testing.T) {
	mk := func(parallelism int) Config {
		return Config{Seed: 7, Scale: 0.35, OptimalBudget: 100 * time.Millisecond, Parallelism: parallelism}
	}
	seq, err := Table2(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table2(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.SettingI) != len(par.SettingI) || len(seq.SettingII) != len(par.SettingII) {
		t.Fatalf("row counts differ: %d/%d vs %d/%d",
			len(seq.SettingI), len(seq.SettingII), len(par.SettingI), len(par.SettingII))
	}
	for i := range seq.SettingI {
		if seq.SettingI[i].Label != par.SettingI[i].Label {
			t.Errorf("SettingI row %d label %q vs %q", i, seq.SettingI[i].Label, par.SettingI[i].Label)
		}
	}
	for i := range seq.SettingII {
		if seq.SettingII[i].Label != par.SettingII[i].Label {
			t.Errorf("SettingII row %d label %q vs %q", i, seq.SettingII[i].Label, par.SettingII[i].Label)
		}
	}
	if !reflect.DeepEqual(seq.Notes, par.Notes) {
		t.Errorf("notes differ:\nseq: %v\npar: %v", seq.Notes, par.Notes)
	}
}

// figure5Telemetry runs Figure5 over the given epsilon grid at the
// given parallelism against a fresh registry and returns the
// auctions/gain-evals/reweights counters. Figure5Epsilons is swapped
// and restored around the run.
func figure5Telemetry(t *testing.T, epsilons []float64, parallelism int) (auctions, gainEvals, reweights int64) {
	t.Helper()
	saved := Figure5Epsilons
	Figure5Epsilons = epsilons
	defer func() { Figure5Epsilons = saved }()

	reg := telemetry.NewRegistry()
	cfg := Config{Seed: 7, Scale: 0.08, Parallelism: parallelism, Telemetry: reg}
	if _, err := Figure5(cfg); err != nil {
		t.Fatal(err)
	}
	return reg.Counter("mcs_core_auctions_total", "").Value(),
		reg.Counter("mcs_core_gain_evals_total", "").Value(),
		reg.Counter("mcs_core_reweights_total", "").Value()
}

// TestFigure5SharesWinnerSetConstruction is the acceptance check that
// Figure 5's epsilon sweep performs winner-set construction once per
// profile (1 base + 12 perturbations): the gain-eval telemetry is flat
// in the number of epsilons, auctions_total stays at 13, and every
// sweep point is a reweight.
func TestFigure5SharesWinnerSetConstruction(t *testing.T) {
	const profiles = 13 // 1 base instance + 12 adversarial perturbations
	shortEps := []float64{0.25, 1000}
	longEps := []float64{0.25, 1, 5, 45, 200, 1000}

	auctionsShort, gainShort, reweightsShort := figure5Telemetry(t, shortEps, 4)
	auctionsLong, gainLong, reweightsLong := figure5Telemetry(t, longEps, 4)

	if auctionsShort != profiles || auctionsLong != profiles {
		t.Errorf("auctions_total = %d / %d, want %d for both sweep lengths",
			auctionsShort, auctionsLong, profiles)
	}
	if reweightsShort != int64(profiles*len(shortEps)) {
		t.Errorf("reweights_total = %d, want %d", reweightsShort, profiles*len(shortEps))
	}
	if reweightsLong != int64(profiles*len(longEps)) {
		t.Errorf("reweights_total = %d, want %d", reweightsLong, profiles*len(longEps))
	}
	if gainShort == 0 {
		t.Fatal("expected gain evaluations during construction")
	}
	if gainShort != gainLong {
		t.Errorf("gain_evals_total varies with sweep length: %d (2 eps) vs %d (6 eps) — winner sets rebuilt per epsilon",
			gainShort, gainLong)
	}
}

// TestFigure5GainEvaluationsIgnoreParallelism: Figure 5's 13 profile
// builds fan out on the experiment pool, and each build is one
// sequential warm-started chain, so the gain-evaluation count is one
// value at every parallelism.
func TestFigure5GainEvaluationsIgnoreParallelism(t *testing.T) {
	const want = 39733
	for _, parallelism := range []int{1, 2, 4} {
		if _, got, _ := figure5Telemetry(t, []float64{0.25, 1000}, parallelism); got != want {
			t.Errorf("parallelism %d: gain_evals_total = %d, want %d", parallelism, got, want)
		}
	}
}

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, parallelism := range []int{0, 1, 3, 16} {
		hits := make([]int, 37)
		runIndexed(len(hits), parallelism, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism=%d: index %d ran %d times", parallelism, i, h)
			}
		}
	}
}
