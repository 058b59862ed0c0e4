package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	c.Inc()
	c.Add(4)
	c.Add(0)  // discarded: counters are monotone
	c.Add(-7) // discarded
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := reg.Counter("c_total", ""); again != c {
		t.Error("second lookup returned a different counter")
	}

	g := reg.Gauge("g", "")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket rule: an
// observation exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int // bucket index; len(bounds) = overflow
	}{
		{0.5, 0},
		{1, 0}, // on the first bound: inclusive
		{1.5, 1},
		{2, 1},
		{2.5, 2},
		{3, 2},
		{3.001, 3},
		{100, 3},
	}
	for _, c := range cases {
		h := newHistogram([]float64{1, 2, 3})
		h.Observe(c.v)
		_, counts := h.Buckets()
		for i, n := range counts {
			want := int64(0)
			if i == c.want {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%v): bucket %d = %d, want %d", c.v, i, n, want)
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%v): count = %d, want 1", c.v, h.Count())
		}
	}

	h := newHistogram([]float64{1})
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(2)
	if got := h.Sum(); got != 2.5 {
		t.Errorf("sum = %v, want 2.5", got)
	}
	nan := newHistogram([]float64{1})
	nan.Observe(nanValue())
	if nan.Count() != 0 {
		t.Error("NaN observation must be discarded")
	}
}

// nanValue builds NaN without tripping the float-safety analyzers on a
// literal 0/0 expression.
func nanValue() float64 {
	zero := 0.0
	return zero / zero
}

// TestConcurrentRegistry hammers registration and updates from many
// goroutines; run under -race (the repo default) it proves the
// registry lock-and-atomics discipline.
func TestConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 8
		iters      = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("shared_total", "").Inc()
				reg.Gauge("level", "").Add(1)
				reg.Histogram("lat_seconds", "", TimeBuckets).Observe(0.001)
				reg.Counter(`labeled_total{g="`+string(rune('a'+g))+`"}`, "").Inc()
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("shared_total", "").Value(); got != goroutines*iters {
		t.Errorf("shared counter = %d, want %d", got, goroutines*iters)
	}
	if got := reg.Gauge("level", "").Value(); got != goroutines*iters {
		t.Errorf("gauge = %v, want %d", got, goroutines*iters)
	}
	if got := reg.Histogram("lat_seconds", "", TimeBuckets).Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestPrometheusGolden pins the exact exposition bytes, including
// family grouping, label splicing into histogram buckets, and sorted
// deterministic order.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry(WithClock(NewManualClock(time.Unix(0, 0))))
	reg.Counter("mcs_test_total", "Things counted.").Add(3)
	reg.Counter(`mcs_test_labeled_total{kind="a"}`, "Labeled things.").Add(1)
	reg.Counter(`mcs_test_labeled_total{kind="b"}`, "").Add(2)
	reg.Gauge("mcs_test_level", "A level.").Set(1.5)
	h := reg.Histogram("mcs_test_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(2)
	hl := reg.Histogram(`mcs_test_phase_seconds{phase="collect"}`, "Phase latency.", []float64{1})
	hl.Observe(0.5)

	want := `# HELP mcs_test_labeled_total Labeled things.
# TYPE mcs_test_labeled_total counter
mcs_test_labeled_total{kind="a"} 1
mcs_test_labeled_total{kind="b"} 2
# HELP mcs_test_level A level.
# TYPE mcs_test_level gauge
mcs_test_level 1.5
# HELP mcs_test_phase_seconds Phase latency.
# TYPE mcs_test_phase_seconds histogram
mcs_test_phase_seconds_bucket{phase="collect",le="1"} 1
mcs_test_phase_seconds_bucket{phase="collect",le="+Inf"} 1
mcs_test_phase_seconds_sum{phase="collect"} 0.5
mcs_test_phase_seconds_count{phase="collect"} 1
# HELP mcs_test_seconds Latency.
# TYPE mcs_test_seconds histogram
mcs_test_seconds_bucket{le="0.5"} 2
mcs_test_seconds_bucket{le="1"} 2
mcs_test_seconds_bucket{le="+Inf"} 3
mcs_test_seconds_sum 2.75
mcs_test_seconds_count 3
# HELP mcs_test_total Things counted.
# TYPE mcs_test_total counter
mcs_test_total 3
`
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Byte-stable across repeated writes.
	var again strings.Builder
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != sb.String() {
		t.Error("repeated exposition differs")
	}
}

func TestFamilyKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("registering one family under two kinds must panic")
		}
	}()
	reg.Gauge(`x_total{k="v"}`, "")
}

// TestNopPathAllocatesZero is the nop-overhead acceptance criterion:
// every operation an instrumented hot path performs against a nil
// registry/tracer must allocate nothing.
func TestNopPathAllocatesZero(t *testing.T) {
	var reg *Registry
	var tr *Tracer
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_seconds", "", TimeBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(1)
		start := reg.Now()
		h.Observe(reg.Since(start))
		tr.Record(Span{Name: "round"})
		// Re-lookup on the nil registry must also be free: instrumented
		// code may fetch handles per call rather than caching them.
		reg.Counter("again_total", "").Inc()
	})
	if allocs != 0 {
		t.Errorf("nop path allocates %.1f per op, want 0", allocs)
	}
}

func TestManualClockStopwatch(t *testing.T) {
	mc := NewManualClock(time.Unix(100, 0))
	reg := NewRegistry(WithClock(mc))
	start := reg.Now()
	mc.Advance(2 * time.Second)
	if got := reg.Since(start); got != 2 {
		t.Errorf("registry Since = %v, want 2", got)
	}
}
