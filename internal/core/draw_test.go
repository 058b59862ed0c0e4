package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// drawShapes generate the instances TestDrawMatchesRun draws from: the
// served and durable shapes scaled down so the naive rule stays cheap,
// the tiny fixture with random bids, all-equal bids, and demand nothing
// covers. Epsilon ranges over four orders of magnitude, so some draws
// stop after one cover and others cover many counts and share a count
// between prices; multi marks the shapes where some draw must cover
// more than one count (equal bids leave one feasible count).
var drawShapes = []struct {
	name  string
	multi bool
	gen   func(r *rand.Rand) Instance
}{
	{"served", true, func(r *rand.Rand) Instance { return shapedInstance(r, 120, 30, 8, 22, 0.1) }},
	{"durable", true, func(r *rand.Rand) Instance { return shapedInstance(r, 300, 80, 2, 6, 0.5) }},
	{"tiny", true, func(r *rand.Rand) Instance {
		inst := tinyInstance()
		for i := range inst.Workers {
			inst.Workers[i].Bid = 5 + 20*r.Float64()
		}
		inst.Epsilon = drawEpsilon(r)
		return inst
	}},
	{"equal-bids", false, func(r *rand.Rand) Instance {
		inst := feasibleRandomInstance(r)
		bid := 20 + 40*r.Float64()
		for i := range inst.Workers {
			inst.Workers[i].Bid = bid
		}
		inst.Epsilon = drawEpsilon(r)
		return inst
	}},
	{"uncoverable", false, func(r *rand.Rand) Instance {
		inst := feasibleRandomInstance(r)
		for j := range inst.Thresholds {
			inst.Thresholds[j] = 1e-9
		}
		return inst
	}},
}

func drawEpsilon(r *rand.Rand) float64 { return []float64{0.1, 0.5, 5, 50}[r.Intn(4)] }

// shapedInstance draws n workers bidding bundles of lo..hi of k tasks
// over the 5..30 grid at the given step, delta = 0.3 on every task and
// one accuracy in [0.75, 0.95] per worker: servedShapeInstance's
// generator at any size.
func shapedInstance(r *rand.Rand, n, k, lo, hi int, step float64) Instance {
	inst := Instance{
		NumTasks:   k,
		Thresholds: make([]float64, k),
		Epsilon:    drawEpsilon(r),
		CMin:       5,
		CMax:       30,
		PriceGrid:  PriceGridRange(5, 30, step),
	}
	for j := range inst.Thresholds {
		inst.Thresholds[j] = 0.3
	}
	for i := 0; i < n; i++ {
		bundle := r.Perm(k)[:lo+r.Intn(hi-lo+1)]
		sort.Ints(bundle)
		theta := 0.75 + 0.2*r.Float64()
		row := make([]float64, k)
		for j := range row {
			row[j] = theta
		}
		inst.Workers = append(inst.Workers, Worker{Bundle: bundle, Bid: 5 + 25*r.Float64()})
		inst.Skills = append(inst.Skills, row)
	}
	return inst
}

// sameOutcome fails unless got is want bit for bit.
func sameOutcome(t *testing.T, what string, got, want Outcome) {
	t.Helper()
	if math.Float64bits(got.Price) != math.Float64bits(want.Price) ||
		!slices.Equal(got.Winners, want.Winners) ||
		math.Float64bits(got.TotalPayment) != math.Float64bits(want.TotalPayment) ||
		got.Feasible != want.Feasible {
		t.Fatalf("%s: drew %+v, Run drew %+v", what, got, want)
	}
}

// TestDrawMatchesRun: on 50 instances of every shape, under every rule
// and under both the default support and the grid fixed with
// WithPriceSet, Prepare fails exactly when New does, and every Draw
// returns New(...).Run's outcome bit for bit and leaves its generator
// in Run's state. One drawer per rule and support serves every
// instance, as a shard partition's does across rounds.
func TestDrawMatchesRun(t *testing.T) {
	rules := []SelectionRule{RuleGreedy, RuleGreedyNaive, RuleStatic}
	for _, shape := range drawShapes {
		// Every instance of a shape has the same grid.
		grid := shape.gen(rand.New(rand.NewSource(1))).PriceGrid
		for _, rule := range rules {
			for _, fixed := range []bool{false, true} {
				opts := []Option{WithRule(rule)}
				if fixed {
					opts = append(opts, WithPriceSet(grid))
				}
				what := shape.name + "/" + rule.String()
				if fixed {
					what += "/price-set"
				}
				r := rand.New(rand.NewSource(2602))
				d := NewDrawer(opts...)
				drawn, infeasible, multi := 0, 0, 0
				for trial := 0; trial < 50; trial++ {
					inst := shape.gen(r)
					a, errNew := New(inst, opts...)
					errPrep := d.Prepare(inst)
					if (errNew == nil) != (errPrep == nil) || errNew != nil && errNew.Error() != errPrep.Error() {
						t.Fatalf("%s trial %d: New error %v, Prepare error %v", what, trial, errNew, errPrep)
					}
					if errNew != nil {
						if !errors.Is(errNew, ErrInfeasible) {
							t.Fatal(errNew)
						}
						infeasible++
						continue
					}
					for k := 0; k < 3; k++ {
						seed := r.Int63()
						ra, rd := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
						want := a.Run(ra)
						sameOutcome(t, what, d.Draw(rd), want)
						if x, y := rd.Int63(), ra.Int63(); x != y {
							t.Fatalf("%s trial %d: generator states differ after the draw", what, trial)
						}
						if !want.Feasible {
							infeasible++
						}
						if len(d.covers) > 1 {
							multi++
						}
						drawn++
					}
				}
				if shape.name == "uncoverable" {
					// The default support refuses every instance; a fixed
					// one draws, and every draw is infeasible.
					if fixed && infeasible != drawn || !fixed && drawn != 0 || infeasible == 0 {
						t.Fatalf("%s: %d draws, %d infeasible", what, drawn, infeasible)
					}
				} else if drawn < 30 || shape.multi && multi == 0 {
					t.Fatalf("%s: %d draws, %d of them covering more than one count", what, drawn, multi)
				}
			}
		}
	}
}

// TestDrawServedShapePinned pins how much a draw covers on
// TestServedShapePinned's instance, whose New build makes 37259 gain
// evaluations: per seed, the candidate counts covered and the gain
// evaluations made, recorded when the draw was introduced. Each of
// seeds 1-40 covered one count then, at 183 to 4834 evaluations. Every
// outcome is also the pinned New build's Run.
func TestDrawServedShapePinned(t *testing.T) {
	inst := servedShapeInstance(2502)
	a := mustAuction(t, inst)
	d := NewDrawer()
	if err := d.Prepare(inst); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed          int64
		covers, evals int
	}{
		{1, 1, 3867},
		{2, 1, 2544},
		{3, 1, 2570},
		{4, 1, 1718},
		{5, 1, 3566},
		{14, 1, 183},
	} {
		want := a.Run(rand.New(rand.NewSource(tc.seed)))
		sameOutcome(t, "served shape", d.Draw(rand.New(rand.NewSource(tc.seed))), want)
		if len(d.covers) != tc.covers || d.s.evals != tc.evals {
			t.Errorf("seed %d: %d covers and %d gain evaluations, want %d and %d",
				tc.seed, len(d.covers), d.s.evals, tc.covers, tc.evals)
		}
	}
}

// TestFeasibilityIsPerTaskSums pins the one feasibility definition. Two
// workers each cover one of two tasks, short of its demand by about
// 0.7e-9: within residualTol per task, so the per-task sums make every
// price at or above both bids feasible, while the greedy's summed
// residual, about 1.4e-9, ends above residualTol. New's support and
// Draw's outcome must both follow the per-task sums.
func TestFeasibilityIsPerTaskSums(t *testing.T) {
	const delta = 0.7
	demand := 2 * math.Log(1/delta)
	// The accuracy whose quality falls short of the demand by ~0.7e-9.
	theta := (1 + math.Sqrt(demand-0.7e-9)) / 2
	inst := Instance{
		NumTasks:   2,
		Thresholds: []float64{delta, delta},
		Workers:    []Worker{{Bundle: []int{0}, Bid: 10}, {Bundle: []int{1}, Bid: 12}},
		Skills:     [][]float64{{theta, 0.5}, {0.5, theta}},
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  PriceGridRange(5, 30, 1),
	}
	short := demand - qualityOf(theta)
	if !(short > 0.5e-9 && short < residualTol) {
		t.Fatalf("fixture: each task short by %v, want in (0.5e-9, %v)", short, residualTol)
	}
	var cp coverProblem
	cp.reset(&inst)
	s := &coverScratch{}
	if _, ok := cp.greedyCover(s, []int{0, 1}); ok {
		t.Fatal("fixture: the greedy's summed residual should end above residualTol")
	}
	if f := cp.floor(s, []int{0, 1}); f != 2 {
		t.Fatalf("floor %d, want 2", f)
	}

	a := mustAuction(t, inst)
	if got := a.SupportPrices(); got[0] != 12 || len(got) != 19 {
		t.Fatalf("support %v, want the 19 prices 12..30", got)
	}
	fixed := mustAuction(t, inst, WithPriceSet(inst.PriceGrid))
	for _, info := range fixed.Support() {
		if want := info.Price >= 12; info.Feasible != want {
			t.Fatalf("price %v: feasible %v, want %v", info.Price, info.Feasible, want)
		}
	}
	for _, opts := range [][]Option{nil, {WithPriceSet(inst.PriceGrid)}} {
		a, d := mustAuction(t, inst, opts...), NewDrawer(opts...)
		if err := d.Prepare(inst); err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			want := a.Run(rand.New(rand.NewSource(seed)))
			got := d.Draw(rand.New(rand.NewSource(seed)))
			sameOutcome(t, "per-task sums", got, want)
			if got.Feasible != (got.Price >= 12) || got.Feasible && len(got.Winners) != 2 {
				t.Fatalf("seed %d: outcome %+v", seed, got)
			}
			if err := VerifyOutcome(inst, got); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestDrawerPrepareErrors: Prepare refuses what New refuses, with the
// same error, and a drawer whose Prepare failed refuses to draw.
func TestDrawerPrepareErrors(t *testing.T) {
	badEps := tinyInstance()
	badEps.Epsilon = 0
	aboveCMax := tinyInstance()
	aboveCMax.PriceGrid = append(aboveCMax.PriceGrid, 26)
	infCMax := tinyInstance()
	infCMax.CMax = math.Inf(1)
	infPrice := infCMax
	infPrice.PriceGrid = append(slices.Clone(infPrice.PriceGrid), math.Inf(1))
	for _, tc := range []struct {
		name string
		inst Instance
		opts []Option
		want error
	}{
		{"epsilon", badEps, nil, ErrBadEpsilon},
		{"grid above cmax", aboveCMax, nil, ErrBadPriceGrid},
		{"infinite cmax", infCMax, nil, ErrBadCostRange},
		{"infinite cmax and price", infPrice, nil, ErrBadCostRange},
		{"price set above cmax", tinyInstance(), []Option{WithPriceSet([]float64{20, 26})}, ErrBadPriceGrid},
		{"empty price set", tinyInstance(), []Option{WithPriceSet(nil)}, ErrEmptySupport},
		{"NaN price set", tinyInstance(), []Option{WithPriceSet([]float64{math.NaN()})}, ErrBadPriceGrid},
		{"unsorted price set with NaN", tinyInstance(), []Option{WithPriceSet([]float64{20, math.NaN(), 10})}, ErrBadPriceGrid},
		{"NaN inside a price set", tinyInstance(), []Option{WithPriceSet([]float64{10, math.NaN(), 20})}, ErrBadPriceGrid},
	} {
		_, errNew := New(tc.inst, tc.opts...)
		d := NewDrawer(tc.opts...)
		// Ready the drawer where its options allow, so that the failed
		// Prepare below must be what stops it drawing.
		_ = d.Prepare(tinyInstance())
		errPrep := d.Prepare(tc.inst)
		if !errors.Is(errPrep, tc.want) || errNew == nil || errPrep.Error() != errNew.Error() {
			t.Fatalf("%s: Prepare error %v, New error %v, want %v", tc.name, errPrep, errNew, tc.want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Draw after a failed Prepare did not panic", tc.name)
				}
			}()
			d.Draw(rand.New(rand.NewSource(1)))
		}()
	}
}

// prepClock advances by step on every reading; the test sets a step
// only while Prepare runs.
type prepClock struct {
	t    time.Time
	step time.Duration
}

func (c *prepClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestDrawReportsOneBuild: a draw reports what New's build reports — one
// core.build event and one observation of each mcs_core_* construction
// metric, with New's support size and the draw's own gain evaluations —
// plus one core.cover event per computed cover and one mechanism.sample
// event. Its build time includes the Prepare before it (the clock moves
// only inside Prepare), and a second draw on the same preparation does
// not count it again.
func TestDrawReportsOneBuild(t *testing.T) {
	clock := &prepClock{t: time.Unix(0, 0)}
	reg := telemetry.NewRegistry(telemetry.WithClock(clock))
	ev := evlog.New()
	inst := servedShapeInstance(2502)
	d := NewDrawer(WithTelemetry(reg), WithEventLog(ev))
	clock.step = time.Hour
	if err := d.Prepare(inst); err != nil {
		t.Fatal(err)
	}
	clock.step = 0
	d.Draw(rand.New(rand.NewSource(5)))
	covers, evals := len(d.covers), d.s.evals

	supportSize := len(mustAuction(t, inst).Support())
	build := reg.Histogram("mcs_core_build_seconds", "", nil)
	support := reg.Histogram("mcs_core_support_size", "", nil)
	if build.Count() != 1 || build.Sum() != 3600 {
		t.Fatalf("build seconds: %d observations summing to %v, want one of 3600 (the Prepare's)", build.Count(), build.Sum())
	}
	if support.Count() != 1 || support.Sum() != float64(supportSize) {
		t.Fatalf("support size: %d observations summing to %v, want one of %d", support.Count(), support.Sum(), supportSize)
	}
	if got := reg.Counter("mcs_core_auctions_total", "").Value(); got != 1 {
		t.Fatalf("auctions_total %d, want 1", got)
	}
	if got := reg.Counter("mcs_core_gain_evals_total", "").Value(); got != int64(evals) {
		t.Fatalf("gain_evals_total %d, want the draw's %d", got, evals)
	}
	if got := reg.Counter("mcs_mechanism_samples_total", "").Value(); got != 1 {
		t.Fatalf("samples_total %d, want 1", got)
	}

	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range events {
		count[e.Name]++
		if e.Name == "core.build" {
			size, _ := e.Int("support_size")
			gains, _ := e.Int("gain_evals")
			if size != int64(supportSize) || gains != int64(evals) {
				t.Fatalf("core.build support_size %d gain_evals %d, want %d and %d", size, gains, supportSize, evals)
			}
		}
	}
	if count["core.build"] != 1 || count["core.cover"] != covers || count["mechanism.sample"] != 1 {
		t.Fatalf("events %v, want one core.build, %d core.cover and one mechanism.sample", count, covers)
	}

	d.Draw(rand.New(rand.NewSource(6)))
	if build.Count() != 2 || build.Sum() != 3600 {
		t.Fatalf("second draw: %d observations summing to %v, want the Prepare counted once", build.Count(), build.Sum())
	}
}

// TestDrawAllocs: a warm draw, the lazy sampler's Gumbels and visiting
// order included, allocates only its outcome's winner slice.
func TestDrawAllocs(t *testing.T) {
	inst := servedShapeInstance(2502)
	d := NewDrawer()
	if err := d.Prepare(inst); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	d.Draw(r)
	if allocs := testing.AllocsPerRun(20, func() { d.Draw(r) }); allocs > 1 {
		t.Fatalf("warm draw allocates %.1f/op, want at most the winner slice", allocs)
	}
}
