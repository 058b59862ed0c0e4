package mechanism

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// LazyExponential is the exponential mechanism for log-weights that
// are costly to compute and never positive, as Equation 10's are (each
// needs a winner set). Sample returns exactly the index
// Exponential.Sample returns over the same log-weights and leaves the
// generator in the same state, but computes only the log-weights whose
// Gumbel can still win.
//
// Exactness: Sample draws the m Gumbels g_i in index order, as
// Exponential.Sample does, whose result is the smallest index that
// maximizes fl(lw_i + g_i). Rounding is monotone, so lw_i <= 0 gives
// fl(lw_i + g_i) <= g_i. Sample visits the indices in descending g
// (equal g in ascending index) and stops at the first g_i below the
// best fl(lw + g) so far: no index left to visit can reach that value.
// An index whose g equals the best is still visited, because an equal
// value at a smaller index wins the tie, as the first maximum does in
// Exponential.Sample.
//
// The zero value is ready to use. A LazyExponential reuses its buffers
// across draws and is not safe for concurrent use.
type LazyExponential struct {
	gumbels []float64
	order   []int
	samples *telemetry.Counter
	ev      *evlog.Logger
}

// Instrument attaches the draw to a telemetry registry and an event
// log, as Exponential's Instrument and InstrumentEvents do: every draw
// counts into mcs_mechanism_samples_total and emits one debug-level
// mechanism.sample event carrying the drawn index. Nil for either is
// the nop.
func (l *LazyExponential) Instrument(reg *telemetry.Registry, lg *evlog.Logger) {
	l.samples = reg.Counter("mcs_mechanism_samples_total",
		"Exponential-mechanism price draws (Gumbel-max).")
	l.ev = lg
}

// Sample draws one index of m > 0 from the distribution proportional
// to exp(logWeight(i)). logWeight must return a finite value <= 0 and
// is called at most once per index, in descending order of the index's
// Gumbel.
func (l *LazyExponential) Sample(r *rand.Rand, m int, logWeight func(i int) float64) int {
	g, order := l.gumbels[:0], l.order[:0]
	for i := 0; i < m; i++ {
		g = append(g, stats.Gumbel(r))
		order = append(order, i)
	}
	l.gumbels, l.order = g, order
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(g[b], g[a]); c != 0 {
			return c
		}
		return a - b
	})
	best, bestVal := 0, math.Inf(-1)
	for _, i := range order {
		if g[i] < bestVal {
			break
		}
		v := logWeight(i) + g[i]
		//mcslint:allow MCS-FLT001 tie rule: Exponential.Sample keeps the first of equal maxima, so an exactly equal value at a smaller index must win
		if v > bestVal || v == bestVal && i < best {
			best, bestVal = i, v
		}
	}
	l.samples.Inc()
	l.ev.Debug("mechanism.sample",
		evlog.Int("index", best),
		evlog.Int("support_size", m))
	return best
}
