// Tests for the in-situ meter runtime: the asymptote identity against the
// committed golden corpus (a disarmed instrument is byte-for-byte invisible),
// arena-reuse determinism with a live meter, the chaos interaction (an MCU
// crash drops the buffered burst instead of panicking or double-counting),
// and the exact sample/flush arithmetic of the counters.
//
// External test package, like the golden corpus harness it reuses: BCOM
// needs the planner in internal/core.
package hub_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/faults"
	"iothub/internal/hub"
	"iothub/internal/obs"
)

// runMetered executes one golden-corpus entry with the given meter model and
// returns the same three byte streams the corpus pins.
func runMetered(t *testing.T, ids []apps.ID, scheme hub.Scheme, chaos string, m *obs.MeterModel) (result, counters, trace []byte) {
	t.Helper()
	rec := obs.NewRecorder()
	rec.EnableTracing()
	cfg := obsConfig(t, ids, scheme, 2, rec)
	cfg.Meter = m
	if chaos != "" {
		schedule, err := faults.ParseSchedule(chaos)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultSchedule = schedule
	}
	res, err := hub.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var cbuf, tbuf bytes.Buffer
	if err := obs.WriteCounters(&cbuf, rec); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&tbuf, rec); err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n'), cbuf.Bytes(), tbuf.Bytes()
}

// mustGolden reads a committed golden file (no -update path: this test pins
// against the corpus as committed — if it only passes after regeneration,
// the asymptote is broken).
func mustGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	return b
}

// TestMeterAsymptoteGolden is the convergence check the meter model promises:
// a zero-cost meter and the External preset reproduce the committed golden
// corpus — result JSON, counter registry, and trace digest — byte for byte,
// across every scheme, clean and under chaos. The instrument's mere presence
// in the config costs nothing; only its costs do.
func TestMeterAsymptoteGolden(t *testing.T) {
	ext := obs.External()
	ext.RateHz = 1000 // a bench instrument samples for free at any rate
	zero := obs.MeterModel{RateHz: 500}
	for _, tc := range goldenCases() {
		for _, m := range []struct {
			label string
			model obs.MeterModel
		}{{"external", ext}, {"zerocost", zero}} {
			t.Run(tc.name+"/"+m.label, func(t *testing.T) {
				model := m.model
				result, counters, trace := runMetered(t, tc.ids, tc.scheme, tc.chaos, &model)
				if want := mustGolden(t, tc.name+".result.json"); !bytes.Equal(result, want) {
					t.Errorf("result JSON diverged from golden under a disarmed meter")
				}
				if want := mustGolden(t, tc.name+".counters.txt"); !bytes.Equal(counters, want) {
					t.Errorf("counters diverged from golden under a disarmed meter:\ngot:\n%s\nwant:\n%s", counters, want)
				}
				digest := fmt.Sprintf("sha256:%x %d bytes\n", sha256.Sum256(trace), len(trace))
				if want := mustGolden(t, tc.name+".trace.sha256"); digest != string(want) {
					t.Errorf("trace digest diverged from golden under a disarmed meter:\ngot:  %swant: %s", digest, want)
				}
			})
		}
	}
}

// TestMeterArenaReuse pins arena-reuse determinism with a live instrument: a
// metered run in a reused arena — warmed by runs of other schemes, with and
// without meters — must be byte-identical to the same scenario in a fresh
// arena, result and counters both. The meter track must revive in the same
// registration order construction created it.
func TestMeterArenaReuse(t *testing.T) {
	m := obs.Insitu(500)
	metered := hub.Scenario{
		Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline,
		Windows: 2, Seed: 7, SkipAppCompute: true, Meter: &m,
	}
	other := hub.Scenario{
		Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Batching,
		Windows: 1, Seed: 3, SkipAppCompute: true,
	}
	snap := func(r *hub.RunResult, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	fresh := snap(hub.NewArena().RunScenario(metered))
	arena := hub.NewArena()
	snap(arena.RunScenario(other))   // dirty the arena meter-free
	snap(arena.RunScenario(metered)) // first metered reuse
	snap(arena.RunScenario(other))   // meter state must fully reset
	reused := snap(arena.RunScenario(metered))
	if fresh != reused {
		t.Errorf("metered run diverges between fresh and reused arenas:\nfresh:  %.300s\nreused: %.300s", fresh, reused)
	}
}

// TestMeterChaosCrash pins the crash interaction: an MCU reboot under an
// armed meter drops the buffered records as one burst (no panic, no
// double-count) and the run stays deterministic and invariant-clean.
func TestMeterChaosCrash(t *testing.T) {
	m := obs.Insitu(1000)
	run := func() *hub.RunResult {
		t.Helper()
		cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Baseline, 2, nil)
		cfg.Meter = &m
		schedule, err := faults.ParseSchedule(goldenChaos)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultSchedule = schedule
		res, err := hub.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.MCUCrashes == 0 {
		t.Fatalf("chaos schedule injected no crash")
	}
	if res.MeterDroppedSamples == 0 {
		t.Errorf("MCU crash dropped no meter samples (want the buffered burst + reboot-window readings)")
	}
	if res.MeterSamples == 0 {
		t.Errorf("meter took no samples under chaos")
	}
	a, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(run())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("metered chaos run is not deterministic")
	}
}

// TestMeterCountersAnalytic checks the instrument's arithmetic exactly: a
// timer-only meter at rate f over w windows takes f·w samples and flushes
// every FlushEvery of them; duty-cycling keeps one attempt in DutyOn+DutyOff;
// the event hook adds one sample per raised interrupt.
func TestMeterCountersAnalytic(t *testing.T) {
	t.Run("timed", func(t *testing.T) {
		m := obs.Insitu(100)
		m.HookCycles = 0
		rec := obs.NewRecorder()
		cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Batching, 2, rec)
		cfg.Meter = &m
		res, err := hub.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 200 // 100 Hz x 2 s
		flushes := samples / m.FlushEvery
		if res.MeterSamples != samples || res.MeterFlushes != flushes {
			t.Errorf("samples/flushes = %d/%d, want %d/%d", res.MeterSamples, res.MeterFlushes, samples, flushes)
		}
		if want := flushes * m.FlushEvery * m.FlushBytes; res.MeterBytes != want {
			t.Errorf("MeterBytes = %d, want %d", res.MeterBytes, want)
		}
		if want := samples*m.PerSampleCycles + int64(flushes)*m.FlushCycles; res.MeterCycles != want {
			t.Errorf("MeterCycles = %d, want %d", res.MeterCycles, want)
		}
		if res.MeterDroppedSamples != 0 {
			t.Errorf("dropped %d samples in a clean run", res.MeterDroppedSamples)
		}
		expectCounter(t, rec, obs.MeterSamples, samples)
		expectCounter(t, rec, obs.MeterFlushes, uint64(flushes))
		expectCounter(t, rec, obs.MeterBytes, uint64(flushes*m.FlushEvery*m.FlushBytes))
		expectCounter(t, rec, obs.MeterCPUCycles, uint64(samples*m.PerSampleCycles+int64(flushes)*m.FlushCycles))
		expectCounter(t, rec, obs.MeterDroppedSamples, 0)
	})
	t.Run("duty", func(t *testing.T) {
		m := obs.Eco(100)
		m.HookCycles = 0
		cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Batching, 2, nil)
		cfg.Meter = &m
		res, err := hub.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 200 attempts, 1-in-4 duty: only idx % 4 == 0 samples.
		if want := 200 / (m.DutyOn + m.DutyOff); res.MeterSamples != want {
			t.Errorf("duty-cycled samples = %d, want %d", res.MeterSamples, want)
		}
	})
	t.Run("hook", func(t *testing.T) {
		m := obs.MeterModel{RateHz: 1, HookCycles: 800}
		cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Baseline, 2, nil)
		cfg.Meter = &m
		res, err := hub.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		timed := 2 // 1 Hz x 2 s
		if want := res.Interrupts + timed; res.MeterSamples != want {
			t.Errorf("hooked samples = %d, want one per interrupt + %d timed = %d", res.MeterSamples, timed, want)
		}
		if want := int64(res.Interrupts) * m.HookCycles; res.MeterCycles != want {
			t.Errorf("MeterCycles = %d, want %d (hooks only: timed samples cost 0 here)", res.MeterCycles, want)
		}
	})
}

// TestMeterScenarioRoundTrip pins the serialization surface fleet sweeps
// depend on: a scenario's meter survives the JSON round trip and shows in
// the label; a meter-free scenario serializes exactly as before.
func TestMeterScenarioRoundTrip(t *testing.T) {
	m := obs.Eco(250)
	s := hub.Scenario{
		Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Batching,
		Windows: 2, Seed: 9, Meter: &m,
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back hub.Scenario
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Meter == nil || *back.Meter != m {
		t.Errorf("meter did not survive the round trip: %+v", back.Meter)
	}
	if want := "A2/Batching/w2/m250"; s.Label() != want {
		t.Errorf("Label() = %q, want %q", s.Label(), want)
	}
	s.Meter = nil
	plain, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("meter")) {
		t.Errorf("meter-free scenario leaks a meter field: %s", plain)
	}
}

// TestMeterShedAllocsFlat pins the RAM-pressure path's cost: a reading shed
// to a full buffer is a counter bump, so a warmed arena allocates the same
// for a run that sheds 1,000 readings as for one that sheds 5,000.
func TestMeterShedAllocsFlat(t *testing.T) {
	allocs := func(rateHz float64) float64 {
		m := obs.Insitu(rateHz)
		m.HookCycles = 0
		m.PerSampleRAM = 1 << 30 // no MCU buffer holds one record: shed them all
		s := hub.Scenario{
			Apps:           []apps.ID{apps.StepCounter},
			Scheme:         hub.Batching,
			Windows:        1,
			Seed:           7,
			SkipAppCompute: true,
			Meter:          &m,
		}
		arena := hub.NewArena()
		for i := 0; i < 3; i++ {
			res, err := arena.RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			if want := int(rateHz); res.MeterDroppedSamples != want || res.MeterSamples != 0 {
				t.Fatalf("%g Hz: shed %d and kept %d readings, want %d shed", rateHz, res.MeterDroppedSamples, res.MeterSamples, want)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := arena.RunScenario(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(1000), allocs(5000)
	if many > few+10 {
		t.Errorf("shedding 5,000 readings allocates %.0f times, 1,000 readings %.0f: the shed path allocates per reading", many, few)
	}
	t.Logf("allocs per run: %.0f shedding 1,000 readings, %.0f shedding 5,000", few, many)
}
