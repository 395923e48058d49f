// Arena reuse gates: the scenario arena is only legitimate while a reused
// arena reproduces the golden corpus byte-for-byte and its steady-state runs
// stay within the pinned allocation budget.
package hub_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/faults"
	"iothub/internal/hub"
	"iothub/internal/obs"
)

// TestArenaReuseMatchesGolden drives every golden corpus entry — all schemes,
// clean and chaotic — through ONE shared arena, twice each. The first run of
// a case exercises renewal after a *different* scheme's state (cross-config
// reset); the second exercises renewal after an identical run. Both must
// match the committed corpus bytes exactly, which proves reuse is
// indistinguishable from fresh construction.
func TestArenaReuseMatchesGolden(t *testing.T) {
	arena := hub.NewArena()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".result.json"))
			if err != nil {
				t.Fatalf("missing golden corpus: %v", err)
			}
			for pass, label := range []string{"after-other-scheme", "after-identical-run"} {
				// Fresh cfg per pass: app instances are stateful (their
				// synthetic sources advance as Compute runs), so reusing one
				// would diverge under any engine, arena or not.
				cfg := obsConfig(t, tc.ids, tc.scheme, 2, nil)
				if tc.chaos != "" {
					schedule, err := faults.ParseSchedule(tc.chaos)
					if err != nil {
						t.Fatal(err)
					}
					cfg.FaultSchedule = schedule
				}
				res, err := arena.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d (%s) diverged from golden (%d vs %d bytes)\ngot:  %.300s\nwant: %.300s",
						pass, label, len(got), len(want), got, want)
				}
			}
		})
	}
}

// TestArenaCloneSurvivesRecycling proves Clone detaches a result from the
// arena's pooled storage: the clone's bytes stay intact while the arena runs
// a different scenario over the recycled backing arrays.
func TestArenaCloneSurvivesRecycling(t *testing.T) {
	arena := hub.NewArena()
	cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Batching, 2, nil)
	res, err := arena.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	before, err := json.Marshal(clone)
	if err != nil {
		t.Fatal(err)
	}
	// Recycle the storage under a different scheme and app mix.
	other := obsConfig(t, []apps.ID{apps.CoAPServer}, hub.COM, 2, nil)
	if _, err := arena.Run(other); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(clone)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("clone mutated by arena reuse:\nbefore: %.300s\nafter:  %.300s", before, after)
	}
	want, err := json.Marshal(res)
	if err == nil && bytes.Equal(before, want) {
		t.Log("recycled result coincidentally matches; clone still independent")
	}
}

// arenaAllocBudget is the pinned steady-state allocation ceiling for one
// Arena.RunScenario of the benchmark-shaped scenario below (1 window,
// SkipAppCompute). The residual allocations are per-run by design — scenario
// materialization (catalog app construction, rate scaling), policy/mode maps,
// the stream plan, and collect()'s result maps — NOT per-event or per-sample
// state: the event kernel, device stack, meter tracks, and bookkeeping maps
// are all revived in place. Measured ~32 on go1.24; the budget leaves 3x
// headroom for toolchain drift. Raising it further means a hot path
// regressed; TestFleetSweepAllocGate in the root package gates the full
// sweep.
const arenaAllocBudget = 100

// TestArenaSteadyStateAllocs pins the per-scenario allocation count of a
// warmed arena.
func TestArenaSteadyStateAllocs(t *testing.T) {
	meter := obs.Insitu(500)
	for _, tc := range []struct {
		name  string
		meter *obs.MeterModel
	}{
		{"plain", nil},
		// The armed meter's sampling ticks, flush completions, and track all
		// come from pooled storage: observing a run must not buy allocations.
		{"metered", &meter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := hub.Scenario{
				Apps:           []apps.ID{apps.StepCounter},
				Scheme:         hub.Batching,
				Windows:        1,
				Seed:           7,
				SkipAppCompute: true,
				Meter:          tc.meter,
			}
			arena := hub.NewArena()
			for i := 0; i < 3; i++ {
				if _, err := arena.RunScenario(s); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := arena.RunScenario(s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > arenaAllocBudget {
				t.Errorf("steady-state RunScenario = %.0f allocs, budget %d", allocs, arenaAllocBudget)
			}
			t.Logf("steady-state RunScenario = %.0f allocs (budget %d)", allocs, arenaAllocBudget)
		})
	}
}

// peakPendingBound caps the event kernel's heap high-water mark for the
// Fig. 11-class runs below. Periodic series (sensor reads, watchdog probes,
// harvest steps) are reserved whole and chained, so the heap holds about one
// pending read per stream plus in-flight work. Measured: 29 (Baseline), 18
// (BEAM) and 25 (COM), against 16,325, 6,665 and 16,323 when every read was
// enqueued before the run.
const peakPendingBound = 64

// TestFig11EventTrafficPinned is the kernel-traffic gate for a Fig. 11-class
// multi-app run (four apps, three windows, app compute on): the scheduled
// event count is pinned exactly — chaining the periodic series must push
// every event the pre-enqueued runner pushed, no more, no fewer — and the
// heap high-water mark must stay small. The Baseline run also overloads the
// MCU (its work queue never drains for long), so the MCU queue's capacity
// is pinned exactly too: it stays within twice the queue's peak depth
// instead of growing with every item pushed over the run. Peak depths are
// 9,301 (Baseline), 567 (BEAM) and 873 (COM); the Baseline queue reached
// 55,552 slots when its head rewound only on a full drain.
func TestFig11EventTrafficPinned(t *testing.T) {
	combo := []apps.ID{apps.StepCounter, apps.M2X, apps.Blynk, apps.Earthquake}
	for _, tc := range []struct {
		scheme    hub.Scheme
		scheduled uint64
		mcuCap    int
	}{
		{hub.Baseline, 130614, 16384},
		{hub.BEAM, 53334, 1024},
		{hub.COM, 49068, 1024},
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			arena := hub.NewArena()
			if _, err := arena.Run(obsConfig(t, combo, tc.scheme, 3, nil)); err != nil {
				t.Fatal(err)
			}
			scheduled, peak := arena.SchedStats()
			if scheduled != tc.scheduled {
				t.Errorf("scheduled %d events, want exactly %d", scheduled, tc.scheduled)
			}
			if peak > peakPendingBound {
				t.Errorf("heap high-water %d pending events, bound %d", peak, peakPendingBound)
			}
			t.Logf("scheduled %d, heap high-water %d (bound %d)", scheduled, peak, peakPendingBound)
			if got := arena.MCUQueueCap(); got != tc.mcuCap {
				t.Errorf("MCU queue capacity %d, want exactly %d", got, tc.mcuCap)
			}
		})
	}
}
