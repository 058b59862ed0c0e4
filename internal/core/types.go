// Package core implements the paper's primary contribution: the
// differentially private single-minded reverse combinatorial auction
// with heterogeneous cost (DP-hSRC, Algorithm 1 of the paper), together
// with the non-private baseline auction used in the evaluation and the
// exact analysis utilities (output PMFs, expected payments, expected
// worker utilities) that make the paper's theorems directly testable.
//
// The model, following Section III of the paper: a platform hosts K
// binary classification tasks; each worker i bids a bundle of task
// indices and a price. The platform must pick a winner set S and a
// single clearing price p such that every task j's aggregation-error
// constraint sum_{i in S, j in bundle_i} (2*theta_ij-1)^2 >= 2*ln(1/delta_j)
// holds (Lemma 1), while approximately minimizing the total payment
// p*|S| and keeping each worker's bid epsilon-differentially private.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Sentinel errors returned by instance validation and auction
// construction. Callers match with errors.Is.
var (
	ErrNoWorkers     = errors.New("core: instance has no workers")
	ErrNoTasks       = errors.New("core: instance has no tasks")
	ErrBadBundle     = errors.New("core: invalid bidding bundle")
	ErrBadSkill      = errors.New("core: skill level outside [0,1]")
	ErrBadThreshold  = errors.New("core: error threshold outside (0,1)")
	ErrBadBid        = errors.New("core: bid price outside [cmin, cmax]")
	ErrBadCostRange  = errors.New("core: cost range invalid")
	ErrBadEpsilon    = errors.New("core: privacy budget must be positive")
	ErrBadPriceGrid  = errors.New("core: price grid must be ascending and positive")
	ErrInfeasible    = errors.New("core: no feasible price exists")
	ErrWorkerIndex   = errors.New("core: worker index out of range")
	ErrEmptySupport  = errors.New("core: empty price support")
	ErrSkillMismatch = errors.New("core: skill matrix shape mismatch")
)

// Worker is one participant's bid in the hSRC auction: the bundle of
// task indices she offers to label and her asked price for the whole
// bundle (Definition 1/2 of the paper; under the mechanism's
// approximate truthfulness the bid price equals her true cost).
type Worker struct {
	// ID is an optional caller-assigned identifier carried through to
	// outcomes; it plays no role in the mechanism.
	ID string
	// Bundle lists the task indices the worker bids on. It must be
	// non-empty, sorted and duplicate-free.
	Bundle []int
	// Bid is the worker's asked price rho_i for executing the bundle.
	Bid float64
}

// Instance is a complete hSRC auction instance.
type Instance struct {
	// NumTasks is K, the number of binary classification tasks.
	NumTasks int
	// Thresholds holds delta_j in (0,1) for each task: the maximum
	// tolerated probability that the aggregated label is wrong.
	Thresholds []float64
	// Workers holds the N bids.
	Workers []Worker
	// Skills is the N x K skill-level matrix theta maintained by the
	// platform: Skills[i][j] is the probability that worker i labels
	// task j correctly. Only the entries of worker i's bundle are read
	// (Lemma 1 weighs no other label), so only they must lie in [0, 1];
	// every row still holds K entries.
	Skills [][]float64
	// Epsilon is the differential-privacy budget.
	Epsilon float64
	// CMin and CMax bound the possible worker costs (the finite cost
	// set C of Section IV lies within [CMin, CMax]).
	CMin, CMax float64
	// PriceGrid is the ascending grid of candidate single prices (the
	// set C restricted to candidate clearing prices). The feasible
	// subset of this grid forms the mechanism's support P unless a
	// support is fixed explicitly with WithPriceSet.
	PriceGrid []float64
}

// Validate checks the instance for structural errors: its terms
// (ValidateTerms), every bid (ValidateBid) and the skill matrix, whose
// rows must each hold NumTasks entries and whose bundle entries must
// lie in [0, 1]. An entry outside the worker's bundle is not checked:
// nothing reads it, so validation costs O(sum of bundle sizes), not
// O(N*K). All mechanism entry points call it.
func (inst *Instance) Validate() error {
	if len(inst.Workers) == 0 {
		return ErrNoWorkers
	}
	if err := inst.ValidateTerms(); err != nil {
		return err
	}
	if len(inst.Skills) != len(inst.Workers) {
		return fmt.Errorf("%w: %d skill rows for %d workers", ErrSkillMismatch, len(inst.Skills), len(inst.Workers))
	}
	for i, w := range inst.Workers {
		if err := inst.ValidateBid(w); err != nil {
			return fmt.Errorf("%w (worker %d)", err, i)
		}
		if len(inst.Skills[i]) != inst.NumTasks {
			return fmt.Errorf("%w: worker %d has %d skills for %d tasks", ErrSkillMismatch, i, len(inst.Skills[i]), inst.NumTasks)
		}
		for _, j := range w.Bundle {
			if th := inst.Skills[i][j]; th < 0 || th > 1 || math.IsNaN(th) {
				return fmt.Errorf("%w: worker %d task %d theta=%v", ErrBadSkill, i, j, th)
			}
		}
	}
	return nil
}

// ValidateTerms checks the instance's public terms, which hold before
// any bid arrives: a positive task count with one threshold in (0, 1)
// per task, a cost range 0 <= CMin <= CMax with CMax finite, a finite
// positive epsilon, and a non-empty price grid (see checkPrices). The
// workers and skills are not read.
func (inst *Instance) ValidateTerms() error {
	if inst.NumTasks <= 0 {
		return ErrNoTasks
	}
	if len(inst.Thresholds) != inst.NumTasks {
		return fmt.Errorf("%w: %d thresholds for %d tasks", ErrBadThreshold, len(inst.Thresholds), inst.NumTasks)
	}
	for j, d := range inst.Thresholds {
		if !(d > 0 && d < 1) {
			return fmt.Errorf("%w: task %d has delta=%v", ErrBadThreshold, j, d)
		}
	}
	// cmax must be finite: Eq. 10 divides by 2*N*cmax, so an infinite
	// one makes every price equally likely, whatever it pays.
	if !(inst.CMin >= 0 && inst.CMax >= inst.CMin) || math.IsInf(inst.CMax, 1) {
		return fmt.Errorf("%w: [%v, %v]", ErrBadCostRange, inst.CMin, inst.CMax)
	}
	if inst.Epsilon <= 0 || math.IsNaN(inst.Epsilon) || math.IsInf(inst.Epsilon, 0) {
		return fmt.Errorf("%w: eps=%v", ErrBadEpsilon, inst.Epsilon)
	}
	if len(inst.PriceGrid) == 0 {
		return fmt.Errorf("%w: empty grid", ErrBadPriceGrid)
	}
	return checkPrices(inst.PriceGrid, inst.CMax)
}

// ValidateBid checks one bid against the instance's terms: a non-empty
// bundle of strictly ascending tasks in [0, NumTasks), and a price in
// [CMin, CMax]. The error may say what is wrong with the bundle, but
// never carries the price, which is the bid's private value.
func (inst *Instance) ValidateBid(w Worker) error {
	if len(w.Bundle) == 0 {
		return fmt.Errorf("%w: empty", ErrBadBundle)
	}
	for k, j := range w.Bundle {
		switch {
		case j < 0 || j >= inst.NumTasks:
			return fmt.Errorf("%w: task %d of %d", ErrBadBundle, j, inst.NumTasks)
		case k > 0 && j < w.Bundle[k-1]:
			return fmt.Errorf("%w: not sorted", ErrBadBundle)
		case k > 0 && j == w.Bundle[k-1]:
			return fmt.Errorf("%w: duplicate task %d", ErrBadBundle, j)
		}
	}
	if !(w.Bid >= inst.CMin && w.Bid <= inst.CMax) {
		return fmt.Errorf("%w = [%v, %v]", ErrBadBid, inst.CMin, inst.CMax)
	}
	return nil
}

// checkPrices checks a price grid or an explicit price set: every
// price positive, strictly above the one before it and at most cmax.
// Eq. 10's 2*N*cmax normalizer bounds a payment x*|S| only when
// x <= cmax; a price above it voids Theorem 2. The order test is
// written !(x > prev) so that a NaN, which compares false, fails it.
func checkPrices(prices []float64, cmax float64) error {
	prev := 0.0
	for _, x := range prices {
		if !(x > prev) {
			return fmt.Errorf("%w: price %v not above %v", ErrBadPriceGrid, x, prev)
		}
		if x > cmax {
			return fmt.Errorf("%w: price %v above cmax %v", ErrBadPriceGrid, x, cmax)
		}
		prev = x
	}
	return nil
}

// Quality returns q_ij = (2*theta_ij - 1)^2, the informativeness of
// worker i's label on task j (Lemma 1), or 0 if j is not in worker i's
// bundle.
func (inst *Instance) Quality(i, j int) float64 {
	for _, t := range inst.Workers[i].Bundle {
		if t == j {
			return qualityOf(inst.Skills[i][j])
		}
	}
	return 0
}

// Demand returns Q_j = 2*ln(1/delta_j), the coverage each task needs
// under the weighted aggregation of Lemma 1.
func (inst *Instance) Demand(j int) float64 {
	return 2 * math.Log(1/inst.Thresholds[j])
}

// Demands returns the full Q vector.
func (inst *Instance) Demands() []float64 {
	out := make([]float64, inst.NumTasks)
	for j := range out {
		out[j] = inst.Demand(j)
	}
	return out
}

// qualityOf maps a skill level theta to the coverage contribution
// (2*theta-1)^2.
func qualityOf(theta float64) float64 {
	d := 2*theta - 1
	return d * d
}

// Clone deep-copies the instance so mechanism internals can never
// alias caller-owned memory. Per-worker bundles and skill rows are laid
// out in two flat backing arrays (capped sub-slices, so appending to
// one row can never clobber a neighbour), keeping the clone at a
// handful of allocations instead of two per worker.
func (inst *Instance) Clone() Instance {
	var cp Instance
	cp.copyFrom(inst, nil, nil)
	return cp
}

// copyFrom makes inst a deep copy of src, as Clone does, reusing inst's
// slices and the flat bundle and skill backing arrays fb and fs, which
// it returns for the next copy. An empty bundle or skill row copies as
// nil. src must not share memory with inst or with fb and fs.
func (inst *Instance) copyFrom(src *Instance, fb []int, fs []float64) ([]int, []float64) {
	inst.NumTasks = src.NumTasks
	inst.Epsilon = src.Epsilon
	inst.CMin = src.CMin
	inst.CMax = src.CMax
	inst.Thresholds = append(inst.Thresholds[:0], src.Thresholds...)
	inst.PriceGrid = append(inst.PriceGrid[:0], src.PriceGrid...)
	nb, ns := 0, 0
	for i := range src.Workers {
		nb += len(src.Workers[i].Bundle)
	}
	for i := range src.Skills {
		ns += len(src.Skills[i])
	}
	fb, fs = withCap(fb, nb), withCap(fs, ns)
	inst.Workers = withCap(inst.Workers, len(src.Workers))
	for _, w := range src.Workers {
		lo := len(fb)
		fb = append(fb, w.Bundle...)
		var bundle []int
		if len(w.Bundle) > 0 {
			bundle = fb[lo:len(fb):len(fb)]
		}
		inst.Workers = append(inst.Workers, Worker{ID: w.ID, Bundle: bundle, Bid: w.Bid})
	}
	inst.Skills = withCap(inst.Skills, len(src.Skills))
	for _, row := range src.Skills {
		lo := len(fs)
		fs = append(fs, row...)
		var rowCopy []float64
		if len(row) > 0 {
			rowCopy = fs[lo:len(fs):len(fs)]
		}
		inst.Skills = append(inst.Skills, rowCopy)
	}
	return fb, fs
}

// withCap returns s emptied, with room for n elements: s's own backing
// array when it is large enough, else one new exactly sized array.
func withCap[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// MaxPriceGridPoints caps the points PriceGridRange builds: 2^20
// prices, 8 MiB. The paper's grids hold 251 points, and mcs-platform's
// default grid 51.
const MaxPriceGridPoints = 1 << 20

// PriceGridRange builds the ascending grid {lo, lo+step, ..., <= hi},
// matching the paper's price sets (numbers spaced at interval 0.1 in
// [35, 60] for Settings I-IV). A point that rounding carries just past
// hi is hi itself, so no point ever exceeds hi. It panics unless lo, hi
// and step are finite with lo <= hi and step > 0, and the grid's
// ⌊(hi-lo)/step⌋+1 points are at most MaxPriceGridPoints: with a NaN or
// an infinite input the grid would never end, and with a step too
// small for the range it would exhaust memory or, where lo + k*step
// rounds to lo, never end.
func PriceGridRange(lo, hi, step float64) []float64 {
	if !(step > 0 && lo <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(step, 0) {
		panic("core: invalid price grid range")
	}
	span := (hi - lo) / step // +Inf when hi - lo overflows
	if !(span < MaxPriceGridPoints) {
		panic("core: price grid range exceeds MaxPriceGridPoints points")
	}
	var grid []float64
	// Generate by index to avoid accumulating floating-point error. k
	// stops one past ⌊span⌋, the last point rounding can carry to hi,
	// so a step below lo's precision, which never moves v past hi,
	// cannot loop on. Such a step rounds several k to one point; only
	// the first is kept, so the grid stays strictly ascending.
	for k := 0; k <= int(span)+1; k++ {
		v := lo + float64(k)*step
		if v > hi+step*1e-9 {
			break
		}
		if v = min(v, hi); len(grid) == 0 || v > grid[len(grid)-1] {
			grid = append(grid, v)
		}
	}
	return grid
}
