package evlog

import (
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// The nop contract: instrumented hot paths emit events unconditionally,
// so the nil logger must cost a nil check and nothing else — in
// particular the variadic field slice must stay on the stack.

func TestNopEmitAllocatesZero(t *testing.T) {
	var l *Logger
	n := 7
	allocs := testing.AllocsPerRun(1000, func() {
		l.Info("round.start", Int("workers", n), Float("eps", 0.1), Redacted("bid"))
	})
	if allocs != 0 {
		t.Fatalf("nop emit allocates %v per op, want 0", allocs)
	}
}

func BenchmarkEventNop(b *testing.B) {
	var l *Logger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Info("bench.tick", Int("i", i), Float("eps", 0.1), Redacted("bid"))
	}
}

func BenchmarkEventLive(b *testing.B) {
	l := New(WithClock(telemetry.NewManualClock(time.Unix(0, 0))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Info("bench.tick", Int("i", i), Float("eps", 0.1), Redacted("bid"))
	}
}
