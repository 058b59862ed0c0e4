// Package plot renders the experiment harness's figures without any
// external plotting dependency: line charts with error bars as SVG
// (the substitution for the paper's MATLAB figures) and aligned
// text/CSV tables. Only the standard library is used.
package plot

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by chart validation.
var (
	ErrNoSeries  = errors.New("plot: chart has no series")
	ErrBadSeries = errors.New("plot: series has mismatched or empty data")
)

// Series is one named line on a chart. YErr, when non-nil, draws
// symmetric error bars and must have the same length as Y.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	YErr []float64
}

// validate checks the series' internal consistency.
func (s *Series) validate() error {
	if len(s.X) == 0 || len(s.X) != len(s.Y) {
		return fmt.Errorf("%w: %q has %d xs and %d ys", ErrBadSeries, s.Name, len(s.X), len(s.Y))
	}
	if s.YErr != nil && len(s.YErr) != len(s.Y) {
		return fmt.Errorf("%w: %q has %d error bars for %d points", ErrBadSeries, s.Name, len(s.YErr), len(s.Y))
	}
	for i := range s.X {
		if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
			return fmt.Errorf("%w: %q has NaN at index %d", ErrBadSeries, s.Name, i)
		}
	}
	return nil
}

// Chart is a line chart with one or more series.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// LogX draws the x axis on a log10 scale (used by the Figure 5
	// epsilon sweep).
	LogX bool
}

// validate checks the chart is renderable.
func (c *Chart) validate() error {
	if len(c.Series) == 0 {
		return ErrNoSeries
	}
	for i := range c.Series {
		if err := c.Series[i].validate(); err != nil {
			return err
		}
		if c.LogX {
			for _, x := range c.Series[i].X {
				if x <= 0 {
					return fmt.Errorf("%w: %q has non-positive x on log axis", ErrBadSeries, c.Series[i].Name)
				}
			}
		}
	}
	return nil
}

// bounds returns the data extent across all series, padding degenerate
// ranges so the mapping to pixels is always well defined.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				x = math.Log10(x)
			}
			lo, hi := s.Y[i], s.Y[i]
			if s.YErr != nil {
				lo -= s.YErr[i]
				hi += s.YErr[i]
			}
			xmin = math.Min(xmin, x)
			xmax = math.Max(xmax, x)
			ymin = math.Min(ymin, lo)
			ymax = math.Max(ymax, hi)
		}
	}
	if xmax == xmin { //mcslint:allow MCS-FLT001 degenerate-range sentinel: only an exactly collapsed axis needs widening, a near-collapse renders fine
		xmin, xmax = xmin-1, xmax+1
	}
	if ymax == ymin { //mcslint:allow MCS-FLT001 degenerate-range sentinel: only an exactly collapsed axis needs widening, a near-collapse renders fine
		ymin, ymax = ymin-1, ymax+1
	}
	// 5% headroom on y so lines do not hug the frame.
	pad := (ymax - ymin) * 0.05
	return xmin, xmax, ymin - pad, ymax + pad
}

// niceTicks returns ~n "nice" tick positions covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		return []float64{lo}
	}
	rawStep := span / float64(n-1)
	mag := math.Pow(10, math.Floor(math.Log10(rawStep)))
	var step float64
	switch norm := rawStep / mag; {
	case norm < 1.5:
		step = mag
	case norm < 3.5:
		step = 2 * mag
	case norm < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var ticks []float64
	for v := math.Ceil(lo/step) * step; v <= hi+step*1e-9; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// formatTick renders a tick value compactly.
func formatTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 { //mcslint:allow MCS-FLT001 exact integrality test chooses the label format; both branches render v correctly
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}
