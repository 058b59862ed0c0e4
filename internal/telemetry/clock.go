// Package telemetry is the repo's stdlib-only observability subsystem:
// a Registry of atomic counters, gauges and fixed-bucket latency
// histograms with Prometheus text exposition, plus a recorder of
// finished span trees with JSON export.
//
// Two properties shape the design:
//
//  1. Nil is the Nop. A nil *Registry, *Counter, *Gauge, *Histogram
//     or *Tracer is fully usable — every method no-ops and
//     allocates nothing — so instrumented hot paths carry telemetry
//     unconditionally and pay only a nil check when it is disabled.
//     Packages therefore never branch on "is telemetry on".
//
//  2. The clock is injected. Deterministic packages (core, mechanism,
//     ilp, ...) are forbidden wall-clock reads by mcs-lint
//     (MCS-DET002); they time themselves through Registry.Now /
//     Registry.Since, which resolve to the Registry's Clock. The one
//     sanctioned time.Now() in the module's instrumentation path lives
//     here, behind WallClock; tests swap in a ManualClock and get
//     byte-reproducible durations.
package telemetry

import (
	"sync"
	"time"
)

// Clock supplies the current time. Production registries use
// WallClock(); deterministic tests inject a ManualClock.
type Clock interface {
	Now() time.Time
}

// systemClock is the production clock.
type systemClock struct{}

// Now reads the wall clock.
//
//mcslint:allow MCS-DET002 the module's single sanctioned wall-clock read: every instrumented package times through an injected Clock, so swapping this implementation for a ManualClock restores byte-determinism
func (systemClock) Now() time.Time { return time.Now() }

// WallClock returns the real-time clock.
func WallClock() Clock { return systemClock{} }

// ManualClock is a clock for deterministic tests: time only moves when
// Advance is called. Safe for concurrent use.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock returns a manual clock frozen at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the clock's current frozen time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
