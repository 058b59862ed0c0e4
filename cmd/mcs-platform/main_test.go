package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-tasks", "0", "-window", "1ms"}); err == nil {
		t.Error("zero tasks accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-metrics-addr", "256.0.0.1:99999", "-window", "1ms"}); err == nil {
		t.Error("bad metrics address accepted")
	}
	if err := run([]string{"-console-addr", "256.0.0.1:99999", "-window", "1ms"}); err == nil {
		t.Error("bad console address accepted")
	}
	// Bad skill bounds fail before the platform listens, not as a
	// degraded round.
	for _, skills := range [][]string{
		{"-skill-hi", "1.5"},
		{"-skill-lo", "-0.1"},
		{"-skill-lo", "NaN"},
		{"-skill-hi", "NaN"},
		{"-skill-lo", "0.9", "-skill-hi", "0.8"},
		// The midpoint is the skill store's prior, which must lie
		// strictly inside (0, 1).
		{"-skill-lo", "0", "-skill-hi", "0"},
		{"-skill-lo", "1", "-skill-hi", "1"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0", "-window", "1ms", "-quiet"}, skills...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-skill-lo") {
			t.Errorf("%v: run = %v, want the skill bounds rejected", skills, err)
		}
	}
	// So do bad cost bounds, before the price grid is built from them,
	// and a cost range too wide for the grid's point cap.
	for _, costs := range [][]string{
		{"-cmin", "10", "-cmax", "5"},
		{"-cmin", "-1"},
		{"-cmin", "NaN"},
		{"-cmax", "NaN"},
		{"-cmax", "+Inf"},
		// 2*10^12 grid prices: refused before the grid is built.
		{"-cmax", "1e12"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0", "-window", "1ms", "-quiet"}, costs...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-cmin") || !strings.Contains(err.Error(), "-cmax") {
			t.Errorf("%v: run = %v, want the cost bounds rejected", costs, err)
		}
	}
	// A threshold core would refuse fails the platform's validation,
	// not every round once its bids are in.
	if err := run([]string{"-addr", "127.0.0.1:0", "-window", "1ms", "-quiet", "-delta", "1.5"}); !errors.Is(err, protocol.ErrBadPlatform) {
		t.Errorf("-delta 1.5: run = %v, want ErrBadPlatform", err)
	}
}

// TestOneRoundServesSkillStorePrior: a one-round run reads every new
// worker's accuracy from the skill store, which starts it at the
// midpoint of -skill-lo and -skill-hi. With the range [0.5, 1], every
// worker is 0.75 accurate and weighs (2*0.75-1)^2 = 0.25 on a task, so
// five bundles cannot reach -delta 0.5's demand of 2*ln 2 = 1.39 and
// six can.
func TestOneRoundServesSkillStorePrior(t *testing.T) {
	for _, tc := range []struct {
		workers  int
		feasible bool
	}{{5, false}, {6, true}} {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr().String()
		_ = probe.Close()
		done := make(chan error, 1)
		go func() {
			done <- run([]string{
				"-addr", addr, "-quiet", "-seed", "3", "-window", "10s",
				"-tasks", "2", "-delta", "0.5", "-skill-lo", "0.5", "-skill-hi", "1",
				"-min-workers", strconv.Itoa(tc.workers),
			})
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		var wg sync.WaitGroup
		for i := 0; i < tc.workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Only the platform's verdict matters; an infeasible round
				// refuses its bidders.
				_, _ = protocol.Participate(ctx, addr, protocol.WorkerConfig{
					ID:     fmt.Sprintf("w%d", i),
					Bundle: []int{0, 1},
					Cost:   10,
					Labels: func(int) crowd.Label { return crowd.Positive },
					// The platform may not listen yet.
					Retry: protocol.RetryPolicy{MaxAttempts: 20, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
				})
			}(i)
		}
		wg.Wait()
		err = <-done
		cancel()
		if tc.feasible && err != nil {
			t.Errorf("%d workers: run = %v, want a completed round", tc.workers, err)
		}
		if !tc.feasible && !errors.Is(err, core.ErrInfeasible) {
			t.Errorf("%d workers: run = %v, want core.ErrInfeasible", tc.workers, err)
		}
	}
}

func TestTelemetryServerServesMetricsAndPprof(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("mcs_smoke_total", "Smoke counter.").Add(3)
	addr, closeSrv, err := startHTTPServer("telemetry", "127.0.0.1:0", telemetryMux(reg, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()

	client := &http.Client{Timeout: 5 * time.Second}
	body := httpGet(t, client, "http://"+addr+"/metrics")
	if !strings.Contains(body, "mcs_smoke_total 3") {
		t.Errorf("metrics exposition missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE mcs_smoke_total counter") {
		t.Errorf("metrics exposition missing TYPE line:\n%s", body)
	}
	if body := httpGet(t, client, "http://"+addr+"/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline endpoint returned nothing")
	}
}

// TestEventsAndManifestSurviveDegradedRound runs a round that degrades
// (no bids inside a 50ms window) and asserts the provenance outputs are
// still written: the event stream parses, records the degradation, and
// the manifest's artifact hashes over the events and trace files match
// disk.
func TestEventsAndManifestSurviveDegradedRound(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	tracePath := filepath.Join(dir, "trace.json")
	manifestPath := filepath.Join(dir, "manifest.json")
	err := run([]string{
		"-addr", "127.0.0.1:0", "-window", "50ms", "-quiet",
		"-seed", "7",
		"-events-out", eventsPath, "-trace-out", tracePath, "-manifest-out", manifestPath,
	})
	if err == nil || !protocol.IsDegraded(err) {
		t.Fatalf("run = %v, want the round's degradation", err)
	}

	events, err := evlog.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("events stream invalid: %v", err)
	}
	byName := make(map[string]int)
	for _, e := range events {
		byName[e.Name]++
	}
	for _, want := range []string{"platform.seed", "platform.listening", "round.start", "round.degraded"} {
		if byName[want] == 0 {
			t.Errorf("event stream missing %q (got %v)", want, byName)
		}
	}

	m, err := telemetry.ReadManifest(manifestPath)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if len(m.Seeds) == 0 || m.Seeds[0].Seed != 7 {
		t.Errorf("manifest seeds = %+v, want mechanism seed 7", m.Seeds)
	}
	if m.Config["round_error"] == "" {
		t.Error("manifest missing round_error for a degraded round")
	}
	if len(m.Artifacts) != 2 {
		t.Errorf("manifest artifacts = %+v, want the events and trace files", m.Artifacts)
	}
	for _, chk := range m.VerifyArtifacts(dir) {
		if !chk.OK {
			t.Errorf("artifact %s failed verification: %v", chk.Path, chk.Err)
		}
	}
}

// TestFailingEventsSinkFailsRun: an event that cannot be written to
// -events-out, or a trace that cannot be written to -trace-out, fails
// the run with the write error rather than the round's own
// degradation.
func TestFailingEventsSinkFailsRun(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skipf("no %s on this system", full)
	}
	for flag, want := range map[string]string{"-events-out": "writing events", "-trace-out": "writing trace"} {
		err := run([]string{
			"-addr", "127.0.0.1:0", "-window", "50ms", "-quiet",
			flag, full,
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s: run = %v, want %q", flag, full, err, want)
		}
	}
}

func TestWriteTraceProducesJSON(t *testing.T) {
	tracer := telemetry.NewTracer()
	tracer.Record(telemetry.Span{Name: "round", Children: []telemetry.Span{{Name: "collect-bids"}}})

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tracer); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"round"`, `"collect-bids"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("trace file missing %s:\n%s", want, raw)
		}
	}
}

func httpGet(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return string(raw)
}
