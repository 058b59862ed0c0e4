package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestGatedCoversHotPaths pins the bench-diff gate's coverage: every
// hot-path benchmark participates, the telemetry overhead pairs do not.
func TestGatedCoversHotPaths(t *testing.T) {
	for _, name := range []string{
		"AuctionNew", "AuctionRebuild", "AuctionRun",
		"CoverGreedyLazy", "CoverGreedyNaive",
		"ReweightEpsilon", "RebuildEpsilon",
		"SweepFigure4Sequential", "SweepFigure4Parallel",
	} {
		if !gated(name) {
			t.Errorf("gated(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"TelemetryCounterIncNop", "EvlogEventLive"} {
		if gated(name) {
			t.Errorf("gated(%q) = true, want false", name)
		}
	}
}

// TestAbsoluteGates exercises the fixed-budget gates against synthetic
// results: the AuctionNew allocation ceiling always applies; the sweep
// speedup gate fires on machines with at least 2 cores, where it needs
// 1.3x below 4 cores.
func TestAbsoluteGates(t *testing.T) {
	ok := benchFile{Benchmarks: []benchResult{
		{Name: "AuctionNew", NsPerOp: 1000, AllocsPerOp: auctionNewAllocCeiling},
	}}
	if failures := absoluteGates(ok); len(failures) != 0 {
		t.Errorf("at-ceiling run failed gates: %v", failures)
	}
	over := benchFile{Benchmarks: []benchResult{
		{Name: "AuctionNew", NsPerOp: 1000, AllocsPerOp: auctionNewAllocCeiling + 1},
	}}
	if failures := absoluteGates(over); len(failures) != 1 {
		t.Errorf("over-ceiling run produced %v, want one failure", failures)
	}

	slow := benchFile{Benchmarks: []benchResult{
		{Name: "SweepFigure4Sequential", NsPerOp: 1000},
		{Name: "SweepFigure4Parallel", NsPerOp: 999},
	}}
	failures := absoluteGates(slow)
	if procs := runtime.GOMAXPROCS(0); procs >= 2 {
		if len(failures) != 1 {
			t.Errorf("1.0x speedup on %d cores produced %v, want one failure", procs, failures)
		}
	} else if len(failures) != 0 {
		t.Errorf("speedup gate fired on %d cores: %v (want skipped)", procs, failures)
	}

	// 1.35x clears the 2-3 core floor but not the 4-core gate.
	fair := benchFile{Benchmarks: []benchResult{
		{Name: "SweepFigure4Sequential", NsPerOp: 1350},
		{Name: "SweepFigure4Parallel", NsPerOp: 1000},
	}}
	failures = absoluteGates(fair)
	if procs := runtime.GOMAXPROCS(0); procs >= 4 {
		if len(failures) != 1 {
			t.Errorf("1.35x speedup on %d cores produced %v, want one failure", procs, failures)
		}
	} else if len(failures) != 0 {
		t.Errorf("1.35x speedup on %d cores failed: %v", procs, failures)
	}
}

func TestRunWritesParseableJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark pass in -short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	// 60 is the smallest Setting-I population that stays feasible
	// (fewer workers cannot cover the 30 tasks' error thresholds).
	if err := run([]string{"-workers", "60", "-out", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file benchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if file.Schema != "mcs-bench/v1" {
		t.Errorf("schema %q", file.Schema)
	}
	byName := make(map[string]benchResult)
	for _, b := range file.Benchmarks {
		if b.N <= 0 || b.NsPerOp < 0 {
			t.Errorf("%s: implausible result %+v", b.Name, b)
		}
		byName[b.Name] = b
	}
	// The telemetry contract, end to end: the nop side of each pair
	// allocates nothing — including the structured event logger.
	for _, name := range []string{"TelemetryCounterIncNop", "TelemetryTimedSectionNop", "EvlogEventNop"} {
		b, ok := byName[name]
		if !ok {
			t.Fatalf("benchmark %s missing from output", name)
		}
		if b.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d per op, want 0", name, b.AllocsPerOp)
		}
	}
	if _, ok := byName["AuctionNewInstrumented"]; !ok {
		t.Error("instrumented auction benchmark missing")
	}
}

// TestAuditedSweepProvenance is the provenance acceptance test: the
// audited pass must leave a manifest whose artifact hashes match the
// bytes on disk and whose budget ledger agrees *exactly* — bit for bit,
// not approximately — with the fold of the emitted budget.spend events.
func TestAuditedSweepProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark pass in -short mode")
	}
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	err := run([]string{
		"-suite", "experiment", "-workers", "60",
		"-out", benchPath,
		"-events-out", eventsPath, "-manifest-out", manifestPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	m, err := telemetry.ReadManifest(manifestPath)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}

	// Every artifact the manifest names must hash to what is on disk.
	checks := m.VerifyArtifacts("")
	if len(checks) != 2 {
		t.Fatalf("manifest lists %d artifacts, want bench JSON + events", len(checks))
	}
	for _, chk := range checks {
		if !chk.OK {
			t.Errorf("artifact %s failed verification: %s", chk.Path, chk.Err)
		}
	}

	// The folded event stream and the manifest's accountant snapshot
	// are two records of the same float additions in the same order.
	events, err := evlog.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("events stream invalid: %v", err)
	}
	led, err := evlog.FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	if m.Budget == nil {
		t.Fatal("manifest missing budget ledger")
	}
	if led.CumulativeEpsilon != m.Budget.Spent {
		t.Errorf("folded cumulative epsilon %v != manifest spent %v (must be exact)", led.CumulativeEpsilon, m.Budget.Spent)
	}
	if led.FinalSpent != m.Budget.Spent {
		t.Errorf("ledger final spent %v != manifest spent %v", led.FinalSpent, m.Budget.Spent)
	}
	if led.Total != m.Budget.Total {
		t.Errorf("ledger total %v != manifest total %v", led.Total, m.Budget.Total)
	}
	if int64(led.Releases) != m.Budget.Releases || led.Refusals != 0 {
		t.Errorf("ledger %d releases / %d refusals, manifest %d / %d",
			led.Releases, led.Refusals, m.Budget.Releases, m.Budget.Refusals)
	}
	if len(m.Epsilons) != led.Releases {
		t.Errorf("%d manifest epsilons for %d metered releases", len(m.Epsilons), led.Releases)
	}

	// Shared-vs-rebuilt provenance: one construction, then one reweight
	// per epsilon.
	builds, reweights := 0, 0
	for _, e := range events {
		switch e.Name {
		case "core.build":
			builds++
		case "core.reweight":
			reweights++
		}
	}
	if builds != 1 || reweights != len(m.Epsilons) {
		t.Errorf("%d core.build / %d core.reweight events, want 1 / %d", builds, reweights, len(m.Epsilons))
	}

	// Replayability: the manifest pins the resolved flags and seeds.
	if m.Config["suite"] != "experiment" || m.Config["workers"] != "60" {
		t.Errorf("manifest config missing resolved flags: %v", m.Config)
	}
	if len(m.Seeds) == 0 || m.Seeds[0].Seed != 1 {
		t.Errorf("manifest seeds = %+v, want instance seed 1", m.Seeds)
	}
}
