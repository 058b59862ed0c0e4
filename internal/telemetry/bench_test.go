package telemetry

import "testing"

// The nop-vs-live overhead pair: the nop side must report 0 B/op and
// 0 allocs/op (asserted hard by TestNopPathAllocatesZero; the bench
// quantifies the ns/op gap the live side pays).

func BenchmarkCounterIncNop(b *testing.B) {
	var reg *Registry
	c := reg.Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncLive(b *testing.B) {
	c := NewRegistry().Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveNop(b *testing.B) {
	var reg *Registry
	h := reg.Histogram("h_seconds", "", TimeBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}

func BenchmarkHistogramObserveLive(b *testing.B) {
	h := NewRegistry().Histogram("h_seconds", "", TimeBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}

func BenchmarkTimedSectionNop(b *testing.B) {
	var reg *Registry
	h := reg.Histogram("h_seconds", "", TimeBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := reg.Now()
		h.Observe(reg.Since(start))
	}
}

func BenchmarkTimedSectionLive(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "", TimeBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := reg.Now()
		h.Observe(reg.Since(start))
	}
}

func BenchmarkSnapshotNop(b *testing.B) {
	var reg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}

func BenchmarkSnapshotLive(b *testing.B) {
	reg := NewRegistry()
	reg.Counter(`c_total{result="a"}`, "").Inc()
	reg.Counter(`c_total{result="b"}`, "").Inc()
	reg.Gauge("g", "").Set(2)
	reg.Histogram("h_seconds", "", TimeBuckets).Observe(0.004)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}

func BenchmarkSpanNop(b *testing.B) {
	var tr *Tracer
	children := []Span{{Name: "phase"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(Span{Name: "round", Children: children})
	}
}

// BenchmarkSpanLive records a two-span tree per op; past the span cap
// every tree is counted as dropped, so long runs time the dropping
// path.
func BenchmarkSpanLive(b *testing.B) {
	tr := NewTracer()
	children := []Span{{Name: "phase"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(Span{Name: "round", Children: children})
	}
}
