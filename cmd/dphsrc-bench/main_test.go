package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/dphsrc/dphsrc/internal/telemetry"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallFigure(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	err := run([]string{
		"-run", "fig3",
		"-out", dir,
		"-scale", "0.06",
		"-seed", "5",
		"-manifest-out", manifestPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig3.svg", "fig3.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty: %v", f, err)
		}
	}
	m, err := telemetry.ReadManifest(manifestPath)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if len(m.Artifacts) == 0 {
		t.Fatal("manifest hashed no artifacts")
	}
	if m.Config["scale"] != "0.06" || len(m.Seeds) == 0 || m.Seeds[0].Seed != 5 {
		t.Errorf("manifest provenance incomplete: config=%v seeds=%+v", m.Config, m.Seeds)
	}
	for _, chk := range m.VerifyArtifacts("") {
		if !chk.OK {
			t.Errorf("artifact %s failed verification: %s", chk.Path, chk.Err)
		}
	}
}

func TestRunUnknownExperimentIsNoop(t *testing.T) {
	// Unknown names simply match nothing; run must not error.
	if err := run([]string{"-run", "fig99", "-out", t.TempDir()}); err != nil {
		t.Fatalf("unknown experiment name errored: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}
