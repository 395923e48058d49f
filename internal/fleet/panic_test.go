package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/hub"
)

// TestWorkerPanicBecomesScenarioError proves a panicking scenario fails
// alone — carrying its label and seed in the error — while the rest of the
// sweep completes and aggregates normally.
func TestWorkerPanicBecomesScenarioError(t *testing.T) {
	spec := Spec{Seed: 11, Scenarios: []hub.Scenario{
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline, Windows: 1, Seed: 101, SkipAppCompute: true},
		{Apps: []apps.ID{apps.M2X}, Scheme: hub.Baseline, Windows: 1, Seed: 102, SkipAppCompute: true},
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Batching, Windows: 1, Seed: 103, SkipAppCompute: true},
	}}

	bomb := spec.Scenarios[1].Label()
	orig := execScenario
	execScenario = func(a *hub.Arena, s hub.Scenario) (*hub.RunResult, error) {
		if s.Label() == bomb && s.Seed == 102 {
			panic(fmt.Sprintf("injected fault in %s", s.Label()))
		}
		return orig(a, s)
	}
	defer func() { execScenario = orig }()

	res, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sweep aborted instead of isolating the panic: %v", err)
	}
	if res.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", res.Completed)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("Failed = %+v, want exactly the panicking scenario", res.Failed)
	}
	f := res.Failed[0]
	if f.Index != 1 || f.Label != bomb {
		t.Errorf("failed scenario = index %d label %q, want index 1 label %q", f.Index, f.Label, bomb)
	}
	for _, frag := range []string{"panicked", bomb, "seed 102", "injected fault"} {
		if !strings.Contains(f.Err, frag) {
			t.Errorf("panic error %q missing %q", f.Err, frag)
		}
	}
	if res.Agg.Errors != 1 {
		t.Errorf("Agg.Errors = %d, want 1", res.Agg.Errors)
	}
	// The two survivors ran on the same worker arena around the panic; both
	// must have aggregated real metrics.
	if m := res.Agg.Metric("Baseline/total"); m == nil || m.Count() != 1 {
		t.Errorf("Baseline survivor missing from aggregates; keys = %v", res.Agg.Keys())
	}
	if m := res.Agg.Metric("Batching/total"); m == nil || m.Count() != 1 {
		t.Errorf("Batching survivor missing from aggregates; keys = %v", res.Agg.Keys())
	}
}

// TestRunRangePanicBecomesRecordError proves the shard primitive isolates a
// panic the same way: the record carries the error, the shard completes.
func TestRunRangePanicBecomesRecordError(t *testing.T) {
	scens := []hub.Scenario{
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline, Windows: 1, Seed: 201, SkipAppCompute: true},
		{Apps: []apps.ID{apps.M2X}, Scheme: hub.Baseline, Windows: 1, Seed: 202, SkipAppCompute: true},
	}
	orig := execScenario
	execScenario = func(a *hub.Arena, s hub.Scenario) (*hub.RunResult, error) {
		if s.Seed == 202 {
			panic("boom")
		}
		return orig(a, s)
	}
	defer func() { execScenario = orig }()

	records, err := RunRange(scens, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if records[0].Err != "" || records[0].Metrics == nil {
		t.Errorf("healthy record = %+v", records[0])
	}
	if !strings.Contains(records[1].Err, "panicked") || !strings.Contains(records[1].Err, "seed 202") {
		t.Errorf("panic record error = %q", records[1].Err)
	}
}

// TestRunPoolStopsOnEmitError proves the pool fails fast: the first emit
// error (a journal write failing under Run) stops dispatch, the workers
// drain, and the error comes back without any later record being emitted.
func TestRunPoolStopsOnEmitError(t *testing.T) {
	scens, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("journal full")
	var emitted []int
	err = runPool(scens, 0, len(scens), 3, nil, func(d DoneRecord) error {
		emitted = append(emitted, d.Index)
		if d.Index == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("runPool error = %v, want %v", err, boom)
	}
	if fmt.Sprint(emitted) != "[0 1 2]" {
		t.Errorf("emitted %v, want [0 1 2] and nothing after the failure", emitted)
	}
}

// TestSweepFoldRejectsOutOfOrder proves the fold refuses a record that is
// not the next index, so neither engine can journal a gap or a repeat.
func TestSweepFoldRejectsOutOfOrder(t *testing.T) {
	sw, err := OpenSweep(testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if err := sw.Fold(DoneRecord{Index: 1, Err: "skipped ahead"}); err == nil {
		t.Fatal("fold accepted scenario 1 before scenario 0")
	}
	if err := sw.Fold(DoneRecord{Index: 0, Err: "failed"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Fold(DoneRecord{Index: 0, Err: "failed"}); err == nil {
		t.Fatal("fold accepted scenario 0 twice")
	}
	if sw.Result.Completed != 1 || sw.Result.Agg.Errors != 1 {
		t.Errorf("completed %d errors %d, want 1/1", sw.Result.Completed, sw.Result.Agg.Errors)
	}
}
