package mcu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
)

func newMCU(t *testing.T) (*MCU, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	mc, err := New(s, m, "mcu", DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return mc, s, m
}

func TestNewRejectsBadParams(t *testing.T) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	bad := DefaultParams()
	bad.ReservedBytes = bad.RAMBytes
	if _, err := New(s, m, "m", bad); err == nil {
		t.Error("zero usable RAM accepted")
	}
	bad = DefaultParams()
	bad.BaseSlowdown = 0
	if _, err := New(s, m, "m", bad); err == nil {
		t.Error("zero slowdown accepted")
	}
}

func TestRAMAccounting(t *testing.T) {
	mc, _, _ := newMCU(t)
	free := mc.RAMFree()
	if free != mc.Params().UsableRAM() {
		t.Fatalf("initial free = %d, want %d", free, mc.Params().UsableRAM())
	}
	if err := mc.Alloc(10_000); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if mc.RAMUsed() != 10_000 || mc.RAMFree() != free-10_000 {
		t.Errorf("used=%d free=%d after alloc", mc.RAMUsed(), mc.RAMFree())
	}
	if err := mc.Free(10_000); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if mc.RAMUsed() != 0 {
		t.Errorf("used = %d after free, want 0", mc.RAMUsed())
	}
}

func TestAllocOverflowFailsWithErrNoRAM(t *testing.T) {
	mc, _, _ := newMCU(t)
	err := mc.Alloc(mc.RAMFree() + 1)
	if !errors.Is(err, ErrNoRAM) {
		t.Errorf("oversized Alloc = %v, want ErrNoRAM", err)
	}
	if mc.RAMUsed() != 0 {
		t.Errorf("failed alloc leaked %d bytes", mc.RAMUsed())
	}
	if err := mc.Alloc(-1); err == nil {
		t.Error("negative Alloc accepted")
	}
}

func TestFreeValidation(t *testing.T) {
	mc, _, _ := newMCU(t)
	if err := mc.Free(1); err == nil {
		t.Error("Free beyond allocation accepted")
	}
	if err := mc.Free(-1); err == nil {
		t.Error("negative Free accepted")
	}
}

func TestHeavyAppDoesNotFit(t *testing.T) {
	// A11's 1.43 GB footprint must never fit the 80 KB part.
	mc, _, _ := newMCU(t)
	if err := mc.Alloc(1_430_000_000); !errors.Is(err, ErrNoRAM) {
		t.Errorf("1.43 GB alloc = %v, want ErrNoRAM", err)
	}
}

func TestExecChargesActiveEnergy(t *testing.T) {
	mc, s, m := newMCU(t)
	if err := mc.Exec(50*time.Millisecond, energy.DataCollection, nil); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := m.Total()[energy.DataCollection]
	want := mc.Params().ActiveW * 0.05
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestExecSerializes(t *testing.T) {
	mc, s, _ := newMCU(t)
	var end sim.Time
	for i := 0; i < 4; i++ {
		if err := mc.Exec(time.Millisecond, energy.AppCompute, func() { end = s.Now() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != sim.Time(4*time.Millisecond) {
		t.Errorf("last item ended at %v, want 4ms", end)
	}
	if got := mc.BusyByRoutine()[energy.AppCompute]; got != 4*time.Millisecond {
		t.Errorf("busy = %v, want 4ms", got)
	}
}

func TestExecRejectsNegative(t *testing.T) {
	mc, _, _ := newMCU(t)
	if err := mc.Exec(-1, energy.AppCompute, nil); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestExecRejectsUnknownRoutine(t *testing.T) {
	mc, _, _ := newMCU(t)
	for _, r := range []energy.Routine{0, energy.Idle + 1} {
		if err := mc.Exec(time.Millisecond, r, nil); err == nil {
			t.Errorf("routine %v accepted", r)
		}
	}
	if mc.Busy() {
		t.Error("a rejected item was queued")
	}
}

func TestOffloadTimeSlowdown(t *testing.T) {
	mc, _, _ := newMCU(t)
	base := mc.OffloadTime(time.Millisecond, 1)
	if base != 19*time.Millisecond {
		t.Errorf("base offload = %v, want 19ms", base)
	}
	fp := mc.OffloadTime(time.Millisecond, 8)
	if fp != 152*time.Millisecond {
		t.Errorf("FP offload = %v, want 152ms", fp)
	}
	// Penalties below 1 are clamped.
	if got := mc.OffloadTime(time.Millisecond, 0); got != base {
		t.Errorf("clamped offload = %v, want %v", got, base)
	}
}

func TestIdleReattributesDraw(t *testing.T) {
	mc, s, m := newMCU(t)
	if err := mc.Idle(energy.DataTransfer); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	got := m.Total()[energy.DataTransfer]
	if math.Abs(got-mc.Params().IdleW) > 1e-9 {
		t.Errorf("idle energy = %v, want %v", got, mc.Params().IdleW)
	}
}

func TestIdleWhileBusyFails(t *testing.T) {
	mc, s, _ := newMCU(t)
	if err := mc.Exec(time.Millisecond, energy.AppCompute, nil); err != nil {
		t.Fatal(err)
	}
	if err := mc.Idle(energy.Idle); !errors.Is(err, ErrBusy) {
		t.Errorf("Idle while busy = %v, want ErrBusy", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCrashLosesRAMAndRestartsWork(t *testing.T) {
	mc, s, _ := newMCU(t)
	if err := mc.Alloc(12_000); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	var doneAt sim.Time
	if err := mc.Exec(10*time.Millisecond, energy.AppCompute, func() { doneAt = s.Now() }); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	alive := sim.Time(-1)
	// Crash 4 ms into the 10 ms item; it restarts in full after the reboot.
	if _, err := s.After(4*time.Millisecond, func() {
		if err := mc.Crash(100*time.Millisecond, func() { alive = s.Now() }); err != nil {
			t.Errorf("Crash: %v", err)
		}
		if mc.Alive() {
			t.Error("Alive during reboot")
		}
		if mc.RAMUsed() != 0 {
			t.Errorf("RAM survived the crash: %d bytes", mc.RAMUsed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !mc.Alive() || mc.Crashes() != 1 {
		t.Errorf("alive=%v crashes=%d after run", mc.Alive(), mc.Crashes())
	}
	if alive != sim.Time(104*time.Millisecond) {
		t.Errorf("onAlive at %v, want 104ms", alive)
	}
	// 4 ms partial run discarded + 100 ms reboot + full 10 ms rerun.
	if want := sim.Time(114 * time.Millisecond); doneAt != want {
		t.Errorf("work completed at %v, want %v", doneAt, want)
	}
}

func TestCrashEnergyAndQueueSurvival(t *testing.T) {
	mc, s, m := newMCU(t)
	order := []int{}
	// Two queued items; the crash hits while the first runs. Both still
	// complete, in order, after the reboot.
	for i := 0; i < 2; i++ {
		i := i
		if err := mc.Exec(10*time.Millisecond, energy.AppCompute, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.After(5*time.Millisecond, func() {
		if err := mc.Crash(50*time.Millisecond, nil); err != nil {
			t.Errorf("Crash: %v", err)
		}
		// A crash during the reboot is absorbed, not double-counted.
		if err := mc.Crash(time.Millisecond, nil); err != nil {
			t.Errorf("nested Crash: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mc.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1 (nested crash absorbed)", mc.Crashes())
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("completion order %v, want [0 1]", order)
	}
	// Reboot draw lands on the Idle routine: 50 ms at RebootW.
	wantReboot := mc.Params().RebootW * 0.05
	idleJ := m.Total()[energy.Idle]
	if idleJ < wantReboot-1e-9 {
		t.Errorf("idle-routine energy %v J missing the %v J reboot draw", idleJ, wantReboot)
	}
	// Active energy covers the discarded partial run plus both full reruns.
	wantActive := mc.Params().ActiveW * (0.005 + 0.010 + 0.010)
	if got := m.Total()[energy.AppCompute]; math.Abs(got-wantActive) > 1e-9 {
		t.Errorf("active energy = %v J, want %v (partial + 2 full items)", got, wantActive)
	}
}

func TestExecDuringRebootQueuesUntilAlive(t *testing.T) {
	mc, s, _ := newMCU(t)
	if err := mc.Crash(20*time.Millisecond, nil); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	var doneAt sim.Time
	if err := mc.Exec(time.Millisecond, energy.DataCollection, func() { doneAt = s.Now() }); err != nil {
		t.Fatalf("Exec during reboot: %v", err)
	}
	if err := mc.Idle(energy.Idle); !errors.Is(err, ErrBusy) {
		t.Errorf("Idle during reboot = %v, want ErrBusy", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := sim.Time(21 * time.Millisecond); doneAt != want {
		t.Errorf("queued work completed at %v, want %v", doneAt, want)
	}
}

// Property: Alloc/Free sequences never drive usage negative or beyond the
// usable RAM, and a successful Alloc is always reversible.
func TestPropertyRAMInvariant(t *testing.T) {
	f := func(ops []int16) bool {
		mc, _, _ := newMCUQuiet()
		for _, op := range ops {
			n := int(op)
			if n >= 0 {
				if err := mc.Alloc(n); err == nil {
					defer func(n int) { _ = mc.Free(n) }(n)
				}
			} else if -n <= mc.RAMUsed() {
				if err := mc.Free(-n); err != nil {
					return false
				}
			}
			if mc.RAMUsed() < 0 || mc.RAMUsed() > mc.Params().UsableRAM() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newMCUQuiet() (*MCU, *sim.Scheduler, *energy.Meter) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	mc, err := New(s, m, "mcu", DefaultParams())
	if err != nil {
		panic(err)
	}
	return mc, s, m
}
