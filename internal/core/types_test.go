package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tinyInstance is a small, hand-checkable instance used across tests:
// 3 tasks, 4 workers, generous thresholds.
func tinyInstance() Instance {
	return Instance{
		NumTasks:   3,
		Thresholds: []float64{0.45, 0.45, 0.45},
		Workers: []Worker{
			{ID: "a", Bundle: []int{0, 1}, Bid: 10},
			{ID: "b", Bundle: []int{1, 2}, Bid: 12},
			{ID: "c", Bundle: []int{0, 2}, Bid: 14},
			{ID: "d", Bundle: []int{0, 1, 2}, Bid: 20},
		},
		Skills: [][]float64{
			{0.95, 0.95, 0.5},
			{0.5, 0.95, 0.95},
			{0.95, 0.5, 0.95},
			{0.9, 0.9, 0.9},
		},
		Epsilon:   0.5,
		CMin:      5,
		CMax:      25,
		PriceGrid: PriceGridRange(5, 25, 1),
	}
}

// randomInstance draws a random valid instance small enough for exact
// analysis in tests.
func randomInstance(r *rand.Rand) Instance {
	n := 6 + r.Intn(10)
	k := 2 + r.Intn(5)
	inst := Instance{
		NumTasks:   k,
		Thresholds: make([]float64, k),
		Workers:    make([]Worker, n),
		Skills:     make([][]float64, n),
		Epsilon:    0.1 + r.Float64(),
		CMin:       10,
		CMax:       60,
		PriceGrid:  PriceGridRange(20, 60, 2),
	}
	for j := range inst.Thresholds {
		inst.Thresholds[j] = 0.1 + 0.1*r.Float64()
	}
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(k)
		seen := make(map[int]bool)
		var bundle []int
		for len(bundle) < size {
			j := r.Intn(k)
			if !seen[j] {
				seen[j] = true
				bundle = append(bundle, j)
			}
		}
		sortIntsTest(bundle)
		inst.Workers[i] = Worker{
			Bundle: bundle,
			Bid:    10 + math.Floor(r.Float64()*500)/10,
		}
		row := make([]float64, k)
		for j := range row {
			row[j] = 0.1 + 0.8*r.Float64()
		}
		inst.Skills[i] = row
	}
	return inst
}

// feasibleRandomInstance is randomInstance with skill levels biased
// high enough that most draws admit feasible prices; used by tests that
// need feasible auctions rather than just valid instances.
func feasibleRandomInstance(r *rand.Rand) Instance {
	inst := randomInstance(r)
	for i := range inst.Skills {
		for j := range inst.Skills[i] {
			inst.Skills[i][j] = 0.75 + 0.2*r.Float64()
		}
	}
	for j := range inst.Thresholds {
		inst.Thresholds[j] = 0.25 + 0.15*r.Float64()
	}
	return inst
}

func sortIntsTest(xs []int) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
	}
}

func TestValidateAcceptsTiny(t *testing.T) {
	inst := tinyInstance()
	if err := inst.Validate(); err != nil {
		t.Fatalf("tiny instance invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mk := tinyInstance
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   error
	}{
		{"no workers", func(i *Instance) { i.Workers = nil }, ErrNoWorkers},
		{"no tasks", func(i *Instance) { i.NumTasks = 0 }, ErrNoTasks},
		{"threshold count", func(i *Instance) { i.Thresholds = i.Thresholds[:2] }, ErrBadThreshold},
		{"threshold zero", func(i *Instance) { i.Thresholds[0] = 0 }, ErrBadThreshold},
		{"threshold one", func(i *Instance) { i.Thresholds[1] = 1 }, ErrBadThreshold},
		{"cost range", func(i *Instance) { i.CMax = i.CMin - 1 }, ErrBadCostRange},
		{"infinite cmax", func(i *Instance) { i.CMax = math.Inf(1) }, ErrBadCostRange},
		{"infinite cost range", func(i *Instance) { i.CMin, i.CMax = math.Inf(1), math.Inf(1) }, ErrBadCostRange},
		{"epsilon zero", func(i *Instance) { i.Epsilon = 0 }, ErrBadEpsilon},
		{"epsilon nan", func(i *Instance) { i.Epsilon = math.NaN() }, ErrBadEpsilon},
		{"skill rows", func(i *Instance) { i.Skills = i.Skills[:1] }, ErrSkillMismatch},
		{"skill cols", func(i *Instance) { i.Skills[0] = i.Skills[0][:1] }, ErrSkillMismatch},
		// Worker c bids {0, 2}: θ is judged at its bundle entries only,
		// the only ones Lemma 1 reads, so an off-bundle 1.5 passes.
		{"skill range", func(i *Instance) { i.Skills[2][2] = 1.5 }, ErrBadSkill},
		{"skill nan", func(i *Instance) { i.Skills[2][0] = math.NaN() }, ErrBadSkill},
		{"off-bundle skill", func(i *Instance) { i.Skills[2][1] = 1.5 }, nil},
		{"empty bundle", func(i *Instance) { i.Workers[0].Bundle = nil }, ErrBadBundle},
		{"unsorted bundle", func(i *Instance) { i.Workers[0].Bundle = []int{1, 0} }, ErrBadBundle},
		{"dup bundle", func(i *Instance) { i.Workers[0].Bundle = []int{1, 1} }, ErrBadBundle},
		{"task out of range", func(i *Instance) { i.Workers[0].Bundle = []int{0, 7} }, ErrBadBundle},
		{"bid low", func(i *Instance) { i.Workers[1].Bid = 1 }, ErrBadBid},
		{"bid high", func(i *Instance) { i.Workers[1].Bid = 100 }, ErrBadBid},
		{"empty grid", func(i *Instance) { i.PriceGrid = nil }, ErrBadPriceGrid},
		{"descending grid", func(i *Instance) { i.PriceGrid = []float64{10, 9} }, ErrBadPriceGrid},
		{"nonpositive grid", func(i *Instance) { i.PriceGrid = []float64{0, 1} }, ErrBadPriceGrid},
		{"grid above cmax", func(i *Instance) { i.PriceGrid = append(i.PriceGrid, math.Nextafter(i.CMax, 100)) }, ErrBadPriceGrid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := mk()
			tc.mutate(&inst)
			if err := inst.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("want %v, got %v", tc.want, err)
			}
		})
	}
}

func TestQualityAndDemand(t *testing.T) {
	inst := tinyInstance()
	// Worker a, task 0: theta 0.95 -> (0.9)^2.
	if got, want := inst.Quality(0, 0), 0.81; math.Abs(got-want) > 1e-12 {
		t.Errorf("Quality(0,0) = %v, want %v", got, want)
	}
	// Worker a does not bid task 2.
	if got := inst.Quality(0, 2); got != 0 {
		t.Errorf("Quality(0,2) = %v, want 0", got)
	}
	// Q_j = 2 ln(1/0.45).
	want := 2 * math.Log(1/0.45)
	if got := inst.Demand(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Demand(1) = %v, want %v", got, want)
	}
	ds := inst.Demands()
	if len(ds) != 3 {
		t.Fatalf("Demands length %d", len(ds))
	}
	for j, d := range ds {
		if math.Abs(d-inst.Demand(j)) > 1e-15 {
			t.Errorf("Demands[%d] mismatch", j)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	inst := tinyInstance()
	cp := inst.Clone()
	cp.Workers[0].Bundle[0] = 2
	cp.Skills[0][0] = 0
	cp.Thresholds[0] = 0.5
	cp.PriceGrid[0] = 99
	if inst.Workers[0].Bundle[0] == 2 || inst.Skills[0][0] == 0 ||
		inst.Thresholds[0] == 0.5 || inst.PriceGrid[0] == 99 {
		t.Fatal("Clone shares memory with the original")
	}
}

// TestCloneLayout: Clone copies an empty bundle or skill row as nil,
// and lays every bundle and row out in two flat arrays, so a
// served-shape clone takes six allocations whatever its worker count.
func TestCloneLayout(t *testing.T) {
	inst := tinyInstance()
	inst.Workers[1].Bundle = []int{}
	inst.Skills[2] = []float64{}
	cp := inst.Clone()
	if cp.Workers[1].Bundle != nil || cp.Skills[2] != nil {
		t.Errorf("empty bundle cloned as %#v, empty row as %#v; want nil", cp.Workers[1].Bundle, cp.Skills[2])
	}
	served := servedShapeInstance(2502)
	if allocs := testing.AllocsPerRun(10, func() { served.Clone() }); allocs != 6 {
		t.Errorf("Clone allocates %.0f times, want 6", allocs)
	}
}

func TestPriceGridRange(t *testing.T) {
	grid := PriceGridRange(35, 60, 0.1)
	if len(grid) != 251 {
		t.Fatalf("grid length = %d, want 251", len(grid))
	}
	if grid[0] != 35 || math.Abs(grid[250]-60) > 1e-9 {
		t.Errorf("grid endpoints = %v, %v", grid[0], grid[250])
	}
	for i := 1; i < len(grid); i++ {
		if step := grid[i] - grid[i-1]; math.Abs(step-0.1) > 1e-9 {
			t.Fatalf("grid step %v at %d", step, i)
		}
	}
	single := PriceGridRange(5, 5, 1)
	if len(single) != 1 || single[0] != 5 {
		t.Errorf("degenerate grid = %v", single)
	}
	// 0.3 + 6*0.1 rounds to 0.9000000000000001: the last point is hi.
	short := PriceGridRange(0.3, 0.9, 0.1)
	if len(short) != 7 || short[6] != 0.9 || short[5] >= short[6] {
		t.Errorf("grid %v, want 7 ascending points ending at 0.9", short)
	}
	// The cap admits MaxPriceGridPoints points.
	if full := PriceGridRange(0, MaxPriceGridPoints-1, 1); len(full) != MaxPriceGridPoints {
		t.Errorf("grid of %d points, want %d", len(full), MaxPriceGridPoints)
	}
	// A step below lo's precision rounds several k to one point, which
	// the grid holds once: 1 + k*1e-300 rounds to 1, and 1e16 + k*0.5
	// to 1e16 or 1e16+2.
	for _, tc := range []struct {
		lo, hi, step float64
		want         []float64
	}{
		{1, 1, 1e-300, []float64{1}},
		{1e16, 1e16 + 2, 0.5, []float64{1e16, 1e16 + 2}},
	} {
		if got := PriceGridRange(tc.lo, tc.hi, tc.step); !slices.Equal(got, tc.want) {
			t.Errorf("PriceGridRange(%v, %v, %v) = %v, want %v", tc.lo, tc.hi, tc.step, got, tc.want)
		}
	}
}

// TestPriceGridRangeKeepsPaperGrids: the grids the paper and the served
// workloads use keep every point bit for bit, each lo + k*step with the
// last one capped at hi.
func TestPriceGridRangeKeepsPaperGrids(t *testing.T) {
	for _, tc := range []struct {
		lo, hi, step float64
		points       int
	}{
		{5, 30, 0.1, 251},
		{5, 30, 0.5, 51},
		{5, 30, 1, 26},
		{35, 60, 0.1, 251},
	} {
		grid := PriceGridRange(tc.lo, tc.hi, tc.step)
		if len(grid) != tc.points {
			t.Fatalf("PriceGridRange(%v, %v, %v) has %d points, want %d", tc.lo, tc.hi, tc.step, len(grid), tc.points)
		}
		for k, got := range grid {
			if want := min(tc.lo+float64(k)*tc.step, tc.hi); got != want {
				t.Fatalf("PriceGridRange(%v, %v, %v)[%d] = %v, want %v", tc.lo, tc.hi, tc.step, k, got, want)
			}
		}
	}
}

// TestPriceGridRangePanics: a range that is reversed, a step that is
// not positive, any NaN or infinite input, and a range of more than
// MaxPriceGridPoints steps panic instead of building a grid, which for
// NaN and infinities, or a step that lo + k*step rounds away, would
// never end. The oversized ranges panic before allocating: 2*10^12
// points would exhaust memory.
func TestPriceGridRangePanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range [][3]float64{
		{10, 5, 1},
		{5, 30, 0},
		{5, 30, -1},
		{nan, 30, 1}, {5, nan, 1}, {5, 30, nan},
		{-inf, 30, 1}, {inf, inf, 1},
		{5, inf, 1}, {-inf, -inf, 1},
		{5, 30, inf}, {5, 30, -inf},
		{0, 1e12, 0.5}, {1, 2, 1e-300},
		{0, MaxPriceGridPoints, 1},
		{-math.MaxFloat64, math.MaxFloat64, 1}, // hi - lo overflows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PriceGridRange(%v, %v, %v) did not panic", tc[0], tc[1], tc[2])
				}
			}()
			PriceGridRange(tc[0], tc[1], tc[2])
		}()
	}
}

func TestSelectionRuleString(t *testing.T) {
	if RuleGreedy.String() != "greedy" || RuleGreedyNaive.String() != "greedy-naive" || RuleStatic.String() != "static" {
		t.Error("rule strings wrong")
	}
	if SelectionRule(42).String() == "" {
		t.Error("unknown rule should render")
	}
}
