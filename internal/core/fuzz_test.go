package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FuzzValidate drives instance validation with adversarial numeric
// inputs: it must classify, never panic, and never accept an instance
// that then breaks New.
func FuzzValidate(f *testing.F) {
	f.Add(int16(3), int16(2), 0.5, 10.0, 60.0, 0.3, 0.9)
	f.Add(int16(0), int16(0), 0.0, -1.0, -2.0, 0.0, 2.0)
	f.Add(int16(1), int16(1), math.Inf(1), 0.0, 0.0, 1.0, 0.5)
	f.Add(int16(5), int16(3), 0.1, 10.0, 10.0, 0.999, 0.0)
	f.Fuzz(func(t *testing.T, nRaw, kRaw int16, eps, cmin, cmax, delta, theta float64) {
		// Go's % keeps the dividend's sign; fold negatives into range
		// so the slice sizes below stay valid.
		n := (int(nRaw)%8 + 8) % 8
		k := (int(kRaw)%6 + 6) % 6
		inst := Instance{
			NumTasks: k,
			Epsilon:  eps,
			CMin:     cmin,
			CMax:     cmax,
		}
		for j := 0; j < k; j++ {
			inst.Thresholds = append(inst.Thresholds, delta)
		}
		for i := 0; i < n; i++ {
			bundle := []int{i % maxInt(k, 1)}
			row := make([]float64, k)
			for j := range row {
				row[j] = theta
			}
			inst.Workers = append(inst.Workers, Worker{Bundle: bundle, Bid: cmin})
			inst.Skills = append(inst.Skills, row)
		}
		inst.PriceGrid = []float64{1, 2, 3}
		if cmax > cmin && cmax < math.Inf(1) {
			inst.PriceGrid = []float64{cmax}
		}

		err := inst.Validate()
		if err != nil {
			return
		}
		// Anything validation accepts must be safe to run end to end.
		if _, err := New(inst); err != nil && !errors.Is(err, ErrInfeasible) {
			// New may legitimately find the instance infeasible, but
			// must not fail any other way after Validate passed.
			t.Fatalf("validated instance broke New: %v", err)
		}
	})
}

// FuzzPriceSet drives WithPriceSet with small price sets on
// tinyInstance, NaN and infinities included: New and Drawer.Prepare
// must accept exactly the same sets, and every accepted set must draw a
// finite price and payment.
func FuzzPriceSet(f *testing.F) {
	f.Add(uint8(3), 10.0, 15.0, 20.0)
	f.Add(uint8(1), 25.0, 0.0, 0.0)
	f.Add(uint8(2), 20.0, 10.0, 0.0)
	f.Add(uint8(3), 5.0, 25.0, math.Inf(1))
	f.Add(uint8(2), math.Inf(-1), 5.0, 0.0)
	f.Add(uint8(0), 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, n uint8, p0, p1, p2 float64) {
		set := []float64{p0, p1, p2}[:n%4]
		inst := tinyInstance()
		a, errNew := New(inst, WithPriceSet(set))
		d := NewDrawer(WithPriceSet(set))
		errPrep := d.Prepare(inst)
		if (errNew == nil) != (errPrep == nil) {
			t.Fatalf("price set %v: New error %v, Prepare error %v", set, errNew, errPrep)
		}
		if errNew != nil {
			return
		}
		for _, out := range []Outcome{a.Run(rand.New(rand.NewSource(1))), d.Draw(rand.New(rand.NewSource(1)))} {
			if !finite(out.Price) || !finite(out.TotalPayment) {
				t.Fatalf("price set %v drew price %v, payment %v", set, out.Price, out.TotalPayment)
			}
		}
	})
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
