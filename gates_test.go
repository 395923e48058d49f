package iothub_test

import (
	"runtime"
	"testing"

	"iothub/internal/experiments"
	"iothub/internal/fleet"
)

// Allocation gates: each measures one cold pass of a hot path and fails
// when it allocates past its pinned ceiling, so a regression fails go test
// itself. The bounds hold under -race too, which allocates a little more.

// allocated runs f once and returns the megabytes (10^6 bytes) and heap
// objects it allocated.
func allocated(t *testing.T, f func() error) (mb float64, mallocs uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, after.Mallocs - before.Mallocs
}

// TestFleetSweepAllocGate pins what one single-worker pass of the sweep
// benchmark's 64-scenario grid allocates. The arena keeps a steady-state
// scenario near 106 allocations (3.4 MB per pass), with sensor generators
// seeded on first draw; when every source built its generator up front the
// pass took 5.2 MB, and the 4.5 MB ceiling sits between the two.
func TestFleetSweepAllocGate(t *testing.T) {
	const maxAllocsPerScenario, maxMB = 500, 4.5
	spec := sweepSpec(t)
	var res *fleet.Result
	mb, mallocs := allocated(t, func() (err error) {
		res, err = fleet.Run(spec, fleet.Options{Workers: 1})
		return err
	})
	if res.Agg.Errors > 0 {
		t.Fatalf("failed scenarios: %+v", res.Failed)
	}
	perScenario := float64(mallocs) / float64(res.Completed)
	t.Logf("%.0f allocs/scenario (ceiling %d), %.2f MB (ceiling %.1f)", perScenario, maxAllocsPerScenario, mb, maxMB)
	if perScenario > maxAllocsPerScenario {
		t.Errorf("%.0f allocs/scenario exceeds the ceiling of %d", perScenario, maxAllocsPerScenario)
	}
	if mb > maxMB {
		t.Errorf("%.2f MB exceeds the ceiling of %.1f MB", mb, maxMB)
	}
}

// TestFig11ByteGate pins what one Fig. 11 pass allocates: ~60 MB with
// depth-bounded device queues, against 210.7 MB when the MCU queue grew
// with every push. The 100 MB ceiling sits between the two.
func TestFig11ByteGate(t *testing.T) {
	const maxMB = 100
	mb, _ := allocated(t, func() error {
		_, err := experiments.Fig11()
		return err
	})
	t.Logf("%.1f MB (ceiling %d)", mb, maxMB)
	if mb > maxMB {
		t.Errorf("%.1f MB exceeds the ceiling of %d MB", mb, maxMB)
	}
}
