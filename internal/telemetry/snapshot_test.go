package telemetry

import (
	"reflect"
	"testing"
)

func TestSnapshotReadsEverySeriesSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`bids_total{result="rejected"}`, "").Add(2)
	reg.Counter(`bids_total{result="accepted"}`, "").Add(5)
	reg.Counter("rounds_total", "").Inc()
	reg.Gauge("conns", "").Set(7)
	h := reg.Histogram("lat_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	s := reg.Snapshot()
	wantCounters := []CounterValue{
		{Name: `bids_total{result="accepted"}`, Value: 5},
		{Name: `bids_total{result="rejected"}`, Value: 2},
		{Name: "rounds_total", Value: 1},
	}
	if !reflect.DeepEqual(s.Counters, wantCounters) {
		t.Errorf("counters = %+v, want %+v", s.Counters, wantCounters)
	}
	if got := s.Gauge("conns"); got != 7 {
		t.Errorf("gauge conns = %v, want 7", got)
	}
	hv, ok := s.Histogram("lat_seconds")
	if !ok {
		t.Fatal("histogram lat_seconds missing from snapshot")
	}
	if hv.Count != 3 || hv.Sum != 3.55 {
		t.Errorf("histogram count/sum = %d/%v, want 3/3.55", hv.Count, hv.Sum)
	}
	if want := []int64{1, 1, 1}; !reflect.DeepEqual(hv.Counts, want) {
		t.Errorf("histogram counts = %v, want %v", hv.Counts, want)
	}
	if want := []float64{0.1, 1}; !reflect.DeepEqual(hv.Bounds, want) {
		t.Errorf("histogram bounds = %v, want %v", hv.Bounds, want)
	}
}

func TestSnapshotLookups(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`f_total{k="a"}`, "").Add(3)
	reg.Counter(`f_total{k="b"}`, "").Add(4)
	reg.Counter("other_total", "").Add(10)
	s := reg.Snapshot()
	if got := s.Counter(`f_total{k="a"}`); got != 3 {
		t.Errorf("Counter exact = %d, want 3", got)
	}
	if got := s.Counter("absent"); got != 0 {
		t.Errorf("Counter absent = %d, want 0", got)
	}
	if got := s.CounterFamily("f_total"); got != 7 {
		t.Errorf("CounterFamily = %d, want 7", got)
	}
	if got := s.Gauge("absent"); got != 0 {
		t.Errorf("Gauge absent = %v, want 0", got)
	}
	if _, ok := s.Histogram("absent"); ok {
		t.Error("Histogram absent must report !ok")
	}
}

// The console polls Snapshot on a platform that may not have metrics
// enabled at all; that path must stay free like every other nop path.
func TestSnapshotNopAllocatesZero(t *testing.T) {
	var reg *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		s := reg.Snapshot()
		_ = s.Counter("c_total")
		_ = s.CounterFamily("c_total")
		_ = s.Gauge("g")
		_, _ = s.Histogram("h")
	})
	if allocs != 0 {
		t.Errorf("nil-registry Snapshot allocates %.1f per op, want 0", allocs)
	}
}
