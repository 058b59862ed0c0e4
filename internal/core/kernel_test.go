package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// branchyGain is the reference kernel, the loop gain was before it
// became branch-free: it skips a covered task and picks min(q, r) with
// a branch. gain must return its bits.
func branchyGain(cp *coverProblem, i int, residual []float64) float64 {
	g := 0.0
	for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
		r := residual[cp.taskIdx[k]]
		if r <= 0 {
			continue
		}
		q := cp.qual[k]
		if q < r {
			g += q
		} else {
			g += r
		}
	}
	return g
}

// TestGainMatchesBranchyReference: the branch-free kernel returns the
// reference's bits on random CSR spans. First on residuals set on every
// edge of the two branches it dropped: exact +0 and -0, negative, equal
// to the entry's q and one ulp either side of it, above and below it,
// with q == 0 (theta = 0.5) on some entries, where one ulp below q is
// negative. Then on the residuals a chain of applies leaves. Spans of
// up to 150 entries carry magnitudes from 1e-6 to 1, so summing a span
// in any other order changes the bits.
func TestGainMatchesBranchyReference(t *testing.T) {
	r := rand.New(rand.NewSource(2501))
	edges := []func(q float64) float64{
		func(float64) float64 { return 0 },
		func(float64) float64 { return math.Copysign(0, -1) },
		func(float64) float64 { return -r.Float64() },
		func(q float64) float64 { return q },
		func(q float64) float64 { return math.Nextafter(q, math.Inf(1)) },
		func(q float64) float64 { return math.Nextafter(q, math.Inf(-1)) },
		func(q float64) float64 { return q + r.Float64() },
		func(q float64) float64 { return q * r.Float64() },
		func(float64) float64 { return r.Float64() * math.Pow(10, -float64(r.Intn(7))) },
	}
	check := func(cp *coverProblem, i int, residual []float64, what string) {
		t.Helper()
		got, want := cp.gain(i, residual), branchyGain(cp, i, residual)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, worker %d: gain %v (%#x), reference %v (%#x)",
				what, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 200; trial++ {
		numTasks := 1 + r.Intn(200)
		numWorkers := 1 + r.Intn(20)
		cp := coverProblem{numTasks: numTasks}
		for j := 0; j < numTasks; j++ {
			cp.demands = append(cp.demands, 2*math.Log(1/(0.05+0.9*r.Float64())))
		}
		for i := 0; i < numWorkers; i++ {
			cp.offs = append(cp.offs, len(cp.taskIdx))
			bundle := r.Perm(numTasks)[:1+r.Intn(min(numTasks, 150))]
			sort.Ints(bundle)
			for _, j := range bundle {
				theta := 0.5
				if r.Intn(8) != 0 {
					theta = 0.5 + 0.5*r.Float64()
				}
				cp.taskIdx = append(cp.taskIdx, j)
				cp.qual = append(cp.qual, qualityOf(theta))
			}
		}
		cp.offs = append(cp.offs, len(cp.taskIdx))

		residual := make([]float64, numTasks)
		for rep := 0; rep < 10; rep++ {
			i := r.Intn(numWorkers)
			for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
				residual[cp.taskIdx[k]] = edges[r.Intn(len(edges))](cp.qual[k])
			}
			check(&cp, i, residual, fmt.Sprintf("trial %d edge residuals", trial))
		}

		residual = append(residual[:0], cp.demands...)
		for step := 0; step < 2*numWorkers; step++ {
			cp.apply(r.Intn(numWorkers), residual)
			check(&cp, r.Intn(numWorkers), residual, fmt.Sprintf("trial %d apply step %d", trial, step))
		}
	}
}

// servedShapeInstance draws an instance of the served auction shape:
// 1000 workers bidding 50-150 of 200 tasks over the 5..30 step-0.1
// grid, delta = 0.3 on every task, one accuracy in [0.75, 0.95] per
// worker.
func servedShapeInstance(seed int64) Instance {
	const workers, tasks = 1000, 200
	r := rand.New(rand.NewSource(seed))
	inst := Instance{
		NumTasks:   tasks,
		Thresholds: make([]float64, tasks),
		Epsilon:    0.5,
		CMin:       5,
		CMax:       30,
		PriceGrid:  PriceGridRange(5, 30, 0.1),
	}
	for j := range inst.Thresholds {
		inst.Thresholds[j] = 0.3
	}
	for i := 0; i < workers; i++ {
		bundle := r.Perm(tasks)[:50+r.Intn(101)]
		sort.Ints(bundle)
		theta := 0.75 + 0.2*r.Float64()
		row := make([]float64, tasks)
		for j := range row {
			row[j] = theta
		}
		inst.Workers = append(inst.Workers, Worker{Bundle: bundle, Bid: 5 + 25*r.Float64()})
		inst.Skills = append(inst.Skills, row)
	}
	return inst
}

// supportDigest hashes every support entry (price and payment bits, the
// winners in order) and the PMF's bits.
func supportDigest(a *Auction) string {
	var buf []byte
	for _, info := range a.Support() {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(info.Price))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(info.Payment))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(info.Winners)))
		for _, w := range info.Winners {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
	}
	for _, p := range a.PMF() {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestServedShapePinned pins a served-shape build to the gain
// evaluation count and support digest the atomic-counter, branchy
// kernel recorded, for New and for a Rebuild over another instance's
// buffers. A count that lost an evaluation, or a kernel that moved one
// bit of a gain far enough to change a comparison, shows here.
func TestServedShapePinned(t *testing.T) {
	const (
		digest = "ad02c1ed4a6e7b0dd5fb57df5864bee90e6d4233d135208b1693cfa64a46753e"
		evals  = 37259
	)
	inst := servedShapeInstance(2502)
	fresh := mustAuction(t, inst)
	reused := mustAuction(t, servedShapeInstance(2503))
	if err := reused.Rebuild(inst); err != nil {
		t.Fatal(err)
	}
	for _, built := range []struct {
		how string
		a   *Auction
	}{{"New", fresh}, {"Rebuild", reused}} {
		if got := built.a.GainEvaluations(); got != evals {
			t.Errorf("%s: %d gain evaluations, want %d", built.how, got, evals)
		}
		if got := supportDigest(built.a); got != digest {
			t.Errorf("%s: support digest %s, want %s", built.how, got, digest)
		}
	}
}
