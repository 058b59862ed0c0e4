package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dphsrc/dphsrc/internal/core"
)

// captureRun executes run() with stdout redirected to a pipe and
// returns what it printed.
func captureRun(t *testing.T, args []string) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	runErr := run(args, tmp)
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunGeneratedSetting(t *testing.T) {
	out, err := captureRun(t, []string{"-setting", "I", "-n", "85", "-seed", "3", "-samples", "2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"N=85 workers", "K=30 tasks", "run 1:", "run 2:", "expected total payment"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	out, err := captureRun(t, []string{"-setting", "II", "-k", "25", "-json", "-pmf"})
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"expected_payment", "support_prices", "runs", "pmf"} {
		if _, ok := payload[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
}

func TestRunInstanceFromFile(t *testing.T) {
	inst := core.Instance{
		NumTasks:   2,
		Thresholds: []float64{0.5, 0.5},
		Workers: []core.Worker{
			{ID: "a", Bundle: []int{0, 1}, Bid: 10},
			{ID: "b", Bundle: []int{0, 1}, Bid: 12},
		},
		Skills:    [][]float64{{0.95, 0.95}, {0.95, 0.95}},
		Epsilon:   0.5,
		CMin:      5,
		CMax:      20,
		PriceGrid: core.PriceGridRange(5, 20, 1),
	}
	data, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureRun(t, []string{"-instance", path})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "N=2 workers") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-setting", "V"},
		{"-rule", "quantum"},
		{"-instance", "/nonexistent/file.json"},
	}
	for _, args := range cases {
		if _, err := captureRun(t, args); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunRejectsInvalidInstanceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"NumTasks": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureRun(t, []string{"-instance", path}); err == nil {
		t.Error("invalid instance accepted")
	}
	if err := os.WriteFile(path, []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureRun(t, []string{"-instance", path}); err == nil {
		t.Error("garbage accepted")
	}
	// A feasible instance, so only the data after it can fail the run.
	data, err := json.Marshal(core.Instance{
		NumTasks:   1,
		Thresholds: []float64{0.5},
		Workers: []core.Worker{
			{ID: "a", Bundle: []int{0}, Bid: 10},
			{ID: "b", Bundle: []int{0}, Bid: 12},
		},
		Skills:    [][]float64{{0.95}, {0.95}},
		Epsilon:   0.5,
		CMin:      5,
		CMax:      20,
		PriceGrid: core.PriceGridRange(5, 20, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, " trailing"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureRun(t, []string{"-instance", path}); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestParseRule(t *testing.T) {
	for s, want := range map[string]core.SelectionRule{
		"greedy":       core.RuleGreedy,
		"greedy-naive": core.RuleGreedyNaive,
		"static":       core.RuleStatic,
	} {
		got, err := parseRule(s)
		if err != nil || got != want {
			t.Errorf("parseRule(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseRule("nope"); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestBaselineRuleFromCLI(t *testing.T) {
	out, err := captureRun(t, []string{"-setting", "I", "-n", "80", "-rule", "static"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rule=static") {
		t.Errorf("rule not reflected:\n%s", out)
	}
}
