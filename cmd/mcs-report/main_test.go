package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// writeBundle produces a small but complete provenance bundle in dir:
// an event stream with metered budget activity, a side artifact, and a
// manifest hashing both. It returns the manifest path and the
// accountant so tests can derive the expected ledger.
func writeBundle(t *testing.T, dir string, mutate func(*telemetry.Manifest)) string {
	t.Helper()
	eventsPath := filepath.Join(dir, "events.jsonl")
	ev, closeEvents, err := evlog.Stream(eventsPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev.Info("round.start", evlog.Int("round", 1))
	ev.Warn("round.fault", evlog.String("kind", "duplicate_bid"))
	ev.Info("bid.accepted", evlog.String("worker", "w1"), evlog.Redacted("bid"))

	acct, err := mechanism.NewAccountant(1.5)
	if err != nil {
		t.Fatal(err)
	}
	acct.ObserveEvents(ev)
	for _, eps := range []float64{0.5, 1} {
		if err := acct.Spend(eps); err != nil {
			t.Fatal(err)
		}
	}
	if err := acct.Spend(1); err == nil {
		t.Fatal("overdraw accepted")
	}

	if err := closeEvents(); err != nil {
		t.Fatal(err)
	}
	sidePath := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(sidePath, []byte("side artifact\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := telemetry.NewManifest("mcs-report-test", nil)
	m.SetConfig("rounds", "1")
	m.AddSeed("instance", 9)
	m.AddEpsilons(0.5, 1)
	m.SetBudget(acct.Ledger())
	for _, p := range []string{eventsPath, sidePath} {
		if err := m.AddArtifact(p); err != nil {
			t.Fatal(err)
		}
	}
	if mutate != nil {
		mutate(m)
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	if err := m.WriteFile(manifestPath); err != nil {
		t.Fatal(err)
	}
	return manifestPath
}

func TestReportRendersAndVerifies(t *testing.T) {
	dir := t.TempDir()
	manifestPath := writeBundle(t, dir, nil)

	var out strings.Builder
	if err := run([]string{"-manifest", manifestPath, "-check"}, &out); err != nil {
		t.Fatalf("clean bundle failed -check: %v", err)
	}
	md := out.String()
	for _, want := range []string{
		"# Run report: mcs-report-test",
		"seed instance: 9",
		"epsilons: 0.5, 1",
		"| rounds | 1 |",
		"events.jsonl",
		"2 releases, 1 refusals",
		"| duplicate_bid | 1 |",
		"All checks passed",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown report missing %q:\n%s", want, md)
		}
	}
}

func TestReportHTMLOutput(t *testing.T) {
	dir := t.TempDir()
	manifestPath := writeBundle(t, dir, nil)
	outPath := filepath.Join(dir, "report.html")

	var out strings.Builder
	err := run([]string{"-manifest", manifestPath, "-format", "html", "-o", outPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{"<!DOCTYPE html>", "Run report: mcs-report-test", "duplicate_bid", "All checks passed"} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	if out.Len() != 0 {
		t.Error("-o should suppress stdout output")
	}
}

func TestCheckFailsOnTamperedArtifact(t *testing.T) {
	dir := t.TempDir()
	manifestPath := writeBundle(t, dir, nil)
	// Corrupt the side artifact after the manifest hashed it.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	// Without -check the report renders and names the failure.
	if err := run([]string{"-manifest", manifestPath}, &out); err != nil {
		t.Fatalf("render without -check should succeed: %v", err)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Error("report does not surface the hash mismatch")
	}
	// With -check the mismatch is fatal.
	if err := run([]string{"-manifest", manifestPath, "-check"}, &strings.Builder{}); err == nil {
		t.Error("-check accepted a tampered artifact")
	}
}

func TestCheckFailsOnLedgerDrift(t *testing.T) {
	dir := t.TempDir()
	manifestPath := writeBundle(t, dir, func(m *telemetry.Manifest) {
		// A manifest that claims less spend than the events record is
		// exactly the lie the reconciliation exists to catch.
		b := *m.Budget
		b.Spent = b.Spent / 2
		m.SetBudget(b)
	})
	err := run([]string{"-manifest", manifestPath, "-check"}, &strings.Builder{})
	if err == nil {
		t.Fatal("-check accepted a ledger that disagrees with the event stream")
	}
	if !strings.Contains(err.Error(), "cumulative epsilon") {
		t.Errorf("error does not name the ledger drift: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("missing -manifest accepted")
	}
	if err := run([]string{"-manifest", "x.json", "-format", "pdf"}, &strings.Builder{}); err == nil {
		t.Error("unknown format accepted")
	}
}
