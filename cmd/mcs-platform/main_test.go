package main

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

func TestHashedSkillsDeterministicPerWorker(t *testing.T) {
	f := hashedSkills(0.7, 0.95)
	a := f("alice", 5)
	b := f("alice", 5)
	c := f("bob", 5)
	if len(a) != 5 {
		t.Fatalf("row length %d", len(a))
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("same worker produced different skills")
		}
		if a[j] < 0.7 || a[j] >= 0.95 {
			t.Errorf("skill %v outside [0.7, 0.95)", a[j])
		}
	}
	same := true
	for j := range a {
		if a[j] != c[j] {
			same = false
		}
	}
	if same {
		t.Error("distinct workers produced identical skill rows")
	}
}

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
