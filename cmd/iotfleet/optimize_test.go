package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const searchJSON = `{
  "apps": ["A11", "A2"],
  "windows": 1,
  "seed": 3,
  "maxQosViolations": 0,
  "maxCandidates": 6,
  "skipCompute": true
}`

func writeSearchSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "search.json")
	if err := os.WriteFile(path, []byte(searchJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOptimizeEmitsAndChecksPlan(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var sb strings.Builder
	if err := run([]string{"optimize", "-spec", writeSearchSpec(t), "-out", planPath, "-workers", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"winner:", "builtin scheme:bcom", "pareto front:", "plan written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var check strings.Builder
	if err := run([]string{"optimize", "-check-replay", planPath}, &check); err != nil {
		t.Fatalf("check-replay: %v", err)
	}
	if !strings.Contains(check.String(), "replay ok") {
		t.Errorf("check output = %q", check.String())
	}
	// Tampering with the recorded aggregates must fail the check.
	blob, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(blob), `\"mean\":`, `\"mean\": 0`, 1)
	if tampered == string(blob) {
		t.Fatal("tamper pattern not found in plan")
	}
	if err := os.WriteFile(planPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"optimize", "-check-replay", planPath}, &check); err == nil {
		t.Error("check-replay accepted tampered aggregates")
	}
}

// TestOptimizeCommittedExample drives the committed example search through
// the CLI: the emitted plan must equal the committed plan byte for byte, and
// the committed plan's replay spec must reproduce its aggregates.
func TestOptimizeCommittedExample(t *testing.T) {
	const dir = "../../internal/optimizer/testdata"
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var sb strings.Builder
	if err := run([]string{"optimize", "-spec", filepath.Join(dir, "example.json"), "-out", planPath}, &sb); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "example.plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("emitted plan differs from the committed example.plan.json")
	}
	if err := run([]string{"optimize", "-check-replay", filepath.Join(dir, "example.plan.json")}, &sb); err != nil {
		t.Fatalf("check-replay of the committed plan: %v", err)
	}
}

func TestOptimizeFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"optimize"}, &sb); err == nil {
		t.Error("missing -spec accepted")
	}
	if err := run([]string{"optimize", "-spec", filepath.Join(t.TempDir(), "nope.json")}, &sb); err == nil {
		t.Error("missing spec file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"unknownField": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"optimize", "-spec", bad}, &sb); err == nil {
		t.Error("unknown spec field accepted")
	}
}
