package plot

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func sampleChart() Chart {
	return Chart{
		Title:  "Payment vs N",
		XLabel: "Number of Workers",
		YLabel: "Total Payment",
		Series: []Series{
			{Name: "DP-hSRC", X: []float64{80, 100, 120}, Y: []float64{1000, 1200, 1400}, YErr: []float64{50, 60, 70}},
			{Name: "Baseline", X: []float64{80, 100, 120}, Y: []float64{1500, 1800, 2100}},
		},
	}
}

func TestSVGRenders(t *testing.T) {
	c := sampleChart()
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "Payment vs N", "DP-hSRC", "Baseline",
		"Number of Workers", "Total Payment",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two series with distinct colors.
	if !strings.Contains(svg, seriesPalette[0]) || !strings.Contains(svg, seriesPalette[1]) {
		t.Error("series colors missing")
	}
}

func TestSVGEscapesText(t *testing.T) {
	c := sampleChart()
	c.Title = `a<b & "c"`
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, `a<b`) {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b &amp; &quot;c&quot;") {
		t.Error("escaped title missing")
	}
}

func TestSVGLogX(t *testing.T) {
	c := Chart{
		LogX: true,
		Series: []Series{
			{Name: "s", X: []float64{0.25, 1, 10, 100, 1000}, Y: []float64{1, 2, 3, 4, 5}},
		},
	}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
	c.Series[0].X[0] = -1
	if _, err := c.SVG(); !errors.Is(err, ErrBadSeries) {
		t.Errorf("negative x on log axis: got %v", err)
	}
}

func TestChartValidation(t *testing.T) {
	empty := Chart{}
	if _, err := empty.SVG(); !errors.Is(err, ErrNoSeries) {
		t.Errorf("empty chart: got %v", err)
	}
	ragged := Chart{Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{1, 2}}}}
	if _, err := ragged.SVG(); !errors.Is(err, ErrBadSeries) {
		t.Errorf("ragged series: got %v", err)
	}
	badErr := Chart{Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{1}, YErr: []float64{1, 2}}}}
	if _, err := badErr.SVG(); !errors.Is(err, ErrBadSeries) {
		t.Errorf("ragged yerr: got %v", err)
	}
	nan := Chart{Series: []Series{{Name: "s", X: []float64{math.NaN()}, Y: []float64{1}}}}
	if _, err := nan.SVG(); !errors.Is(err, ErrBadSeries) {
		t.Errorf("NaN: got %v", err)
	}
}

func TestSVGDegenerateRanges(t *testing.T) {
	c := Chart{Series: []Series{{Name: "s", X: []float64{5}, Y: []float64{7}}}}
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
		t.Error("degenerate range produced NaN/Inf coordinates")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 100, 6)
	if len(ticks) < 3 || len(ticks) > 12 {
		t.Fatalf("tick count %d out of expected range: %v", len(ticks), ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not increasing: %v", ticks)
		}
	}
	if got := niceTicks(5, 5, 4); len(got) != 1 {
		t.Errorf("degenerate range ticks: %v", got)
	}
}

func TestTableString(t *testing.T) {
	tbl := Table{
		Headers: []string{"N", "DP-hSRC (s)", "Optimal (s)"},
		Rows: [][]string{
			{"80", "0.156", "6.479"},
			{"120", "0.156", "2337"},
		},
	}
	out := tbl.String()
	if !strings.Contains(out, "DP-hSRC (s)") || !strings.Contains(out, "2337") {
		t.Errorf("table render missing data:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines, got %d", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{
		Headers: []string{"a", "b"},
		Rows:    [][]string{{`x,y`, `say "hi"`}},
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `"x,y"`) || !strings.Contains(got, `"say ""hi"""`) {
		t.Errorf("CSV quoting wrong: %s", got)
	}
}

func TestTableRagged(t *testing.T) {
	tbl := Table{Headers: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); !errors.Is(err, ErrRaggedTable) {
		t.Errorf("want ErrRaggedTable, got %v", err)
	}
	if !strings.Contains(tbl.String(), "ragged") {
		t.Error("String should surface the error")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, sampleChart().Series)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "series,x,y,yerr\n") {
		t.Errorf("missing header: %s", got)
	}
	if !strings.Contains(got, "DP-hSRC,80,1000,50") {
		t.Errorf("missing data row: %s", got)
	}
	if !strings.Contains(got, "Baseline,80,1500,0") {
		t.Errorf("missing zero-yerr row: %s", got)
	}
}
