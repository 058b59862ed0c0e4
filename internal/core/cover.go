package core

import "sort"

// residualTol is the tolerance below which a residual demand is
// considered met; it absorbs floating-point error in the repeated
// subtraction of the inner loop (Algorithm 1 lines 8-13).
const residualTol = 1e-9

// coverProblem is the prepared view of an instance that the winner-set
// routines operate on. Bundles and their quality contributions are laid
// out CSR-style in two contiguous arrays indexed by a shared offset
// table, so the gain/apply hot loops walk a single cache-friendly span
// per worker instead of chasing a slice header per worker.
type coverProblem struct {
	numTasks int
	demands  []float64 // Q_j
	// offs[i]..offs[i+1] delimits worker i's span in taskIdx/qual;
	// len(offs) == numWorkers+1.
	offs    []int
	taskIdx []int     // task index per (worker, bundle-slot) entry
	qual    []float64 // q_ij per entry, parallel to taskIdx
	// totalQual[i] = sum_j q_ij, the static score the baseline auction
	// sorts by.
	totalQual []float64
}

// reset recomputes the cover view from a validated instance, reusing
// the problem's backing arrays. A zero coverProblem is valid input, so
// first builds and rebuilds share one code path.
func (cp *coverProblem) reset(inst *Instance) {
	cp.numTasks = inst.NumTasks
	cp.demands = cp.demands[:0]
	for j := 0; j < inst.NumTasks; j++ {
		cp.demands = append(cp.demands, inst.Demand(j))
	}
	cp.offs = cp.offs[:0]
	cp.taskIdx = cp.taskIdx[:0]
	cp.qual = cp.qual[:0]
	cp.totalQual = cp.totalQual[:0]
	for i := range inst.Workers {
		cp.offs = append(cp.offs, len(cp.taskIdx))
		total := 0.0
		for _, j := range inst.Workers[i].Bundle {
			q := qualityOf(inst.Skills[i][j])
			cp.taskIdx = append(cp.taskIdx, j)
			cp.qual = append(cp.qual, q)
			total += q
		}
		cp.totalQual = append(cp.totalQual, total)
	}
	cp.offs = append(cp.offs, len(cp.taskIdx))
}

// coverScratch holds every transient buffer the winner-set routines
// need, so repeated cover computations allocate nothing once the
// buffers are warm. An Auction's build and a Drawer each own one. The
// slices returned by the cover routines alias the scratch and are only
// valid until its next use; callers persist them through arena.save.
type coverScratch struct {
	residual []float64
	// sums holds floor's per-task quality sums.
	sums     []float64
	heap     gainHeap
	selected []int
	active   []int
	order    []int
	// steps is the trajectory of the latest greedy cover on this
	// scratch, one entry per selection; greedyCoverFrom replays it for
	// the next, larger candidate count.
	steps []coverStep
	// picked marks, by rank, the winners replayed before a lazy-greedy
	// restart so the restart heap excludes them. All false between
	// calls.
	picked []bool
	// arena owns the winner-set memory that outlives the scratch: one
	// chunk per build holds every retained winner slice back to back.
	arena intArena
	// evals counts the marginal-gain evaluations made on this scratch
	// since its build or draw began; GainEvaluations and
	// mcs_core_gain_evals_total report it.
	evals int
}

// intArena hands out immutable []int snapshots carved from a shared
// chunk, replacing one short-lived allocation per winner set with an
// amortized chunk allocation per build. reset reclaims the chunk, which
// invalidates every slice previously handed out — exactly the
// documented lifetime of Auction.Support between Rebuild calls.
type intArena struct {
	buf []int
}

// save copies xs into the arena and returns the stored slice, capped so
// callers appending to it can never clobber a neighbouring save.
func (a *intArena) save(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(xs) {
		size := 2 * cap(a.buf)
		if size < len(xs) {
			size = len(xs)
		}
		if size < 1024 {
			size = 1024
		}
		a.buf = make([]int, 0, size)
	}
	lo := len(a.buf)
	a.buf = append(a.buf, xs...)
	return a.buf[lo:len(a.buf):len(a.buf)]
}

// reset reclaims the current chunk for the next build. Slices handed
// out before the reset become invalid.
func (a *intArena) reset() { a.buf = a.buf[:0] }

// gain returns the marginal coverage sum_j min(residual_j, q_ij) worker
// i would contribute given the current residual demands (Algorithm 1
// line 9). The sum takes no data-dependent branch: a covered task
// (residual <= 0, -0 included) adds min(q_ij, +0) = +0, since q_ij is a
// square and never negative, and adding +0 leaves the bits of the
// non-negative running sum unchanged. Every gain is therefore bitwise
// the one a loop skipping covered tasks computes
// (TestGainMatchesBranchyReference).
func (cp *coverProblem) gain(i int, residual []float64) float64 {
	lo, hi := cp.offs[i], cp.offs[i+1]
	qual := cp.qual[lo:hi]
	g := 0.0
	for k, j := range cp.taskIdx[lo:hi] {
		g += min(qual[k], max(residual[j], 0))
	}
	return g
}

// apply commits worker i's contribution: residual_j -= min(residual_j,
// q_ij) (Algorithm 1 lines 12-13). It returns the total coverage
// removed.
func (cp *coverProblem) apply(i int, residual []float64) float64 {
	removed := 0.0
	for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
		j := cp.taskIdx[k]
		r := residual[j]
		if r <= 0 {
			continue
		}
		q := cp.qual[k]
		if q < r {
			residual[j] = r - q
			removed += q
		} else {
			residual[j] = 0
			removed += r
		}
	}
	return removed
}

// floor returns the smallest candidate count c at which order[:c]
// covers every task: the per-task quality sums of order[:c], added in
// order, reach each Q_j - residualTol. Adding a quality, never
// negative, never lowers a sum, so order[:c] covers every task exactly
// when c >= floor. This is the paper's feasible price (Section IV), and
// it is the only feasibility test: New's support and Drawer's draw both
// read it, and a cover's own residual verdict decides nothing. It
// returns len(order)+1 when even every candidate falls short. The sums
// live in s.sums.
func (cp *coverProblem) floor(s *coverScratch, order []int) int {
	sums := s.sums[:0]
	short := 0
	for _, q := range cp.demands {
		sums = append(sums, 0)
		if 0 < q-residualTol {
			short++
		}
	}
	s.sums = sums
	for c, i := range order {
		if short == 0 {
			return c
		}
		for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
			j := cp.taskIdx[k]
			need, was := cp.demands[j]-residualTol, sums[j]
			sums[j] += cp.qual[k]
			if was < need && sums[j] >= need {
				short--
			}
		}
	}
	if short > 0 {
		return len(order) + 1
	}
	return len(order)
}

// cover computes the winner set of candidates under rule. prev is the
// predecessor count RuleGreedy warm-starts from (0 for a cold cover);
// the other rules ignore it. The returned slice aliases s and must be
// persisted via s.arena before s is reused.
func (cp *coverProblem) cover(rule SelectionRule, s *coverScratch, candidates []int, prev int) []int {
	var sel []int
	switch rule {
	case RuleGreedyNaive:
		sel, _ = cp.greedyCoverNaive(s, candidates)
	case RuleStatic:
		sel, _ = cp.staticCover(s, candidates)
	default:
		sel, _ = cp.greedyCoverFrom(s, candidates, prev)
	}
	return sel
}

// coverStep records one greedy selection: the winner's rank in the
// candidate list and its marginal gain at the residual it was picked
// from.
type coverStep struct {
	rank int
	gain float64
}

// gainItem is a heap entry for the lazy-greedy selection.
type gainItem struct {
	worker int
	// rank is the candidate's position in the bid-sorted candidate
	// list; ties on gain break toward the smaller rank, exactly
	// matching the first-max behaviour of the naive argmax scan.
	rank int
	gain float64
	// round records when the gain was last evaluated; a popped entry
	// with a stale round is re-evaluated before being trusted.
	round int
}

// gainHeap is a max-heap on gain with deterministic tie-breaking on the
// earlier candidate rank (matching the first-max scan of a naive
// argmax over the bid-sorted candidate list). Ranks are unique, so the
// order is strict and the root is the unique maximum whatever the
// layout (TestPropertyGainHeapRootIgnoresLayout).
type gainHeap []gainItem

func (h gainHeap) less(a, b int) bool {
	//mcslint:allow MCS-FLT001 comparator tie-break: a tolerance here would break strict weak ordering; exact inequality deterministically falls through to rank
	if h[a].gain != h[b].gain {
		return h[a].gain > h[b].gain
	}
	return h[a].rank < h[b].rank
}

// siftDown restores the heap property below i0 within h[:n].
func (h gainHeap) siftDown(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// initHeap establishes the heap property.
func (h gainHeap) initHeap() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// popTop removes the root.
func (h gainHeap) popTop() gainHeap {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.siftDown(0, n)
	return h[:n]
}

// greedyCover runs the inner loop of Algorithm 1: repeatedly select the
// candidate with the largest marginal coverage gain until every task's
// residual demand reaches zero. It returns the selected workers in
// selection order and whether the demands were fully covered. The
// returned slice aliases s and is only valid until s is next used.
//
// The implementation uses lazy (CELF-style) evaluation: the marginal
// gain sum_j min(residual_j, q_ij) is submodular in the selected set,
// so a candidate's cached gain can only shrink as the residual shrinks.
// A stale heap top is therefore re-evaluated and pushed back; when a
// fresh evaluation stays on top it is exactly the argmax the naive scan
// would have picked. greedyCoverNaive below is the direct transcription
// used to cross-check this in tests and ablation benches.
//
// A standalone call is always cold: it never replays a trajectory left
// in s by an earlier call. Auction.coverByCount warm-starts consecutive
// candidate counts through greedyCoverFrom instead.
func (cp *coverProblem) greedyCover(s *coverScratch, candidates []int) ([]int, bool) {
	return cp.greedyCoverFrom(s, candidates, 0)
}

// greedyCoverFrom is greedyCover warm-started from the trajectory the
// previous greedy cover on s recorded for candidates[:prev]; prev == 0
// runs cold. The caller guarantees that trajectory is still in s, which
// holds when the immediately preceding cover call on s was greedy over
// candidates[:prev].
//
// Exactness: ties on gain break toward the smaller rank, and every
// candidate in candidates[prev:] outranks every candidate the previous
// trajectory saw. Replaying that trajectory step by step therefore
// reproduces greedyCover's choice as long as no new candidate's gain at
// the step's residual is strictly greater than the recorded winner's
// gain. The replay applies the recorded winners in their original order,
// so every residual it compares against is bitwise the one the cold run
// would reach. At the first step a new candidate wins, or once the
// trajectory runs out with demand left, the lazy greedy restarts from
// the current residual over every candidate not already replayed.
func (cp *coverProblem) greedyCoverFrom(s *coverScratch, candidates []int, prev int) ([]int, bool) {
	residual := append(s.residual[:0], cp.demands...)
	s.residual = residual
	remaining := 0.0
	for _, r := range residual {
		remaining += r
	}
	selected := s.selected[:0]
	steps := s.steps
	if prev == 0 {
		steps = steps[:0]
	}
	if remaining <= residualTol {
		s.selected, s.steps = selected, steps[:0]
		return nil, true
	}

	replayed := 0
	fresh := candidates[prev:]
replay:
	for ; replayed < len(steps); replayed++ {
		st := steps[replayed]
		for _, i := range fresh {
			s.evals++
			if cp.gain(i, residual) > st.gain {
				break replay
			}
		}
		w := candidates[st.rank]
		remaining -= cp.apply(w, residual)
		selected = append(selected, w)
	}
	steps = steps[:replayed]
	if remaining > residualTol {
		selected, steps, remaining = cp.lazyGreedy(s, candidates, selected, steps, remaining)
	}
	s.selected, s.steps = selected, steps
	if len(selected) == 0 {
		return nil, remaining <= residualTol
	}
	return selected, remaining <= residualTol
}

// lazyGreedy runs the CELF selection loop from the current s.residual,
// skipping the candidates whose ranks steps already holds, and appends
// each pick to selected and steps. It returns the extended slices and
// the remaining demand.
func (cp *coverProblem) lazyGreedy(s *coverScratch, candidates, selected []int, steps []coverStep, remaining float64) ([]int, []coverStep, float64) {
	residual := s.residual
	// Candidates are distinct workers, so sizing by the worker count
	// serves every candidate count of a build with one allocation.
	numWorkers := len(cp.totalQual)
	if len(steps) > 0 {
		if len(s.picked) < len(candidates) {
			s.picked = make([]bool, numWorkers)
		}
		for _, st := range steps {
			s.picked[st.rank] = true
		}
	}
	if cap(s.heap) < len(candidates) {
		s.heap = make(gainHeap, 0, numWorkers)
	}
	h := s.heap[:0]
	for rank, i := range candidates {
		if len(steps) > 0 && s.picked[rank] {
			continue
		}
		s.evals++
		g := cp.gain(i, residual)
		if g > 0 {
			h = append(h, gainItem{worker: i, rank: rank, gain: g, round: 0})
		}
	}
	for _, st := range steps {
		s.picked[st.rank] = false
	}
	s.heap = h
	h.initHeap()

	round := 0
	for remaining > residualTol && len(h) > 0 {
		top := h[0]
		if top.round != round {
			// Stale gain: re-evaluate against the current residual and
			// reposition. Submodularity guarantees the fresh gain is
			// not larger than the cached one.
			s.evals++
			fresh := cp.gain(top.worker, residual)
			if fresh <= 0 {
				h = h.popTop()
				continue
			}
			h[0].gain = fresh
			h[0].round = round
			h.siftDown(0, len(h))
			continue
		}
		h = h.popTop()
		removed := cp.apply(top.worker, residual)
		remaining -= removed
		selected = append(selected, top.worker)
		steps = append(steps, coverStep{rank: top.rank, gain: top.gain})
		round++
	}
	return selected, steps, remaining
}

// greedyCoverNaive is the literal transcription of Algorithm 1 lines
// 8-13: a full argmax scan over the remaining candidates per selection.
// It must produce exactly the same winner set as greedyCover; the lazy
// version exists purely to cut the number of gain evaluations. The
// returned slice aliases s and is only valid until s is next used.
func (cp *coverProblem) greedyCoverNaive(s *coverScratch, candidates []int) ([]int, bool) {
	residual := append(s.residual[:0], cp.demands...)
	s.residual = residual
	remaining := 0.0
	for _, r := range residual {
		remaining += r
	}
	active := append(s.active[:0], candidates...)
	selected := s.selected[:0]
	defer func() { s.active, s.selected = active, selected }()
	for remaining > residualTol {
		bestIdx := -1
		bestGain := 0.0
		for k, i := range active {
			s.evals++
			g := cp.gain(i, residual)
			if g > bestGain {
				bestGain = g
				bestIdx = k
			}
		}
		if bestIdx < 0 {
			return selected, false
		}
		w := active[bestIdx]
		active = append(active[:bestIdx], active[bestIdx+1:]...)
		remaining -= cp.apply(w, residual)
		selected = append(selected, w)
	}
	return selected, true
}

// staticOrder sorts candidate indices descending by static total
// quality with an index tie-break. The comparator is a strict total
// order (indices are unique), so the unstable sort.Sort produces
// exactly the sequence the previous sort.SliceStable did, without the
// per-call closure and reflection allocations.
type staticOrder struct {
	idx  []int
	qual []float64
}

func (s *staticOrder) Len() int      { return len(s.idx) }
func (s *staticOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *staticOrder) Less(a, b int) bool {
	//mcslint:allow MCS-FLT001 comparator tie-break: exact inequality keeps the order a strict weak ordering and falls through to index
	if s.qual[s.idx[a]] != s.qual[s.idx[b]] {
		return s.qual[s.idx[a]] > s.qual[s.idx[b]]
	}
	return s.idx[a] < s.idx[b]
}

// staticCover implements the baseline auction of Section VII-A: select
// candidates in descending order of their static total quality
// sum_j q_ij (ignoring what is already covered) until every task's
// error-bound constraint is satisfied. The returned slice aliases s and
// is only valid until s is next used.
func (cp *coverProblem) staticCover(s *coverScratch, candidates []int) ([]int, bool) {
	order := append(s.order[:0], candidates...)
	s.order = order
	sort.Sort(&staticOrder{idx: order, qual: cp.totalQual})
	residual := append(s.residual[:0], cp.demands...)
	s.residual = residual
	remaining := 0.0
	for _, r := range residual {
		remaining += r
	}
	selected := s.selected[:0]
	for _, i := range order {
		if remaining <= residualTol {
			break
		}
		removed := cp.apply(i, residual)
		if removed <= 0 {
			continue
		}
		remaining -= removed
		selected = append(selected, i)
	}
	s.selected = selected
	return selected, remaining <= residualTol
}
