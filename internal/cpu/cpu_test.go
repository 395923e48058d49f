package cpu

import (
	"errors"
	"math"
	"testing"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
)

func newCPU(t *testing.T) (*CPU, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	c, err := New(s, m, "cpu", DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, s, m
}

func run(t *testing.T, s *sim.Scheduler) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNewRejectsZeroMIPS(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := New(s, energy.NewMeter(s), "cpu", Params{}); err == nil {
		t.Error("zero MIPS accepted")
	}
}

func TestExecChargesActivePower(t *testing.T) {
	c, s, m := newCPU(t)
	done := false
	if err := c.Exec(100*time.Millisecond, energy.AppCompute, func() { done = true }); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	run(t, s)
	if !done {
		t.Fatal("done callback never ran")
	}
	got := m.Total()[energy.AppCompute]
	want := c.Params().ActiveW * 0.1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AppCompute energy = %v, want %v", got, want)
	}
	if c.State() != WFI {
		t.Errorf("post-work state = %v, want WFI", c.State())
	}
}

func TestExecSerializesFIFO(t *testing.T) {
	c, s, _ := newCPU(t)
	var order []int
	var at []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		err := c.Exec(10*time.Millisecond, energy.DataTransfer, func() {
			order = append(order, i)
			at = append(at, s.Now())
		})
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	run(t, s)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if at[2] != sim.Time(30*time.Millisecond) {
		t.Errorf("third item ended at %v, want 30ms", at[2])
	}
}

func TestExecRejectsNegativeDuration(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Exec(-1, energy.AppCompute, nil); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestExecRejectsUnknownRoutine(t *testing.T) {
	c, _, _ := newCPU(t)
	for _, r := range []energy.Routine{0, energy.Idle + 1} {
		if err := c.Exec(time.Millisecond, r, nil); err == nil {
			t.Errorf("routine %v accepted", r)
		}
	}
	if c.Busy() {
		t.Error("a rejected item was queued")
	}
}

// TestBusyByRoutineKeepsZeroLengthEntries pins the key set: a routine that
// only ran zero-length items still has a (zero) entry, and one that never
// ran has none.
func TestBusyByRoutineKeepsZeroLengthEntries(t *testing.T) {
	c, s, _ := newCPU(t)
	if err := c.Exec(0, energy.Interrupt, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(3*time.Millisecond, energy.AppCompute, nil); err != nil {
		t.Fatal(err)
	}
	run(t, s)
	got := c.BusyByRoutine()
	want := map[energy.Routine]time.Duration{energy.Interrupt: 0, energy.AppCompute: 3 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("BusyByRoutine = %v, want %v", got, want)
	}
	for r, d := range want {
		if g, ok := got[r]; !ok || g != d {
			t.Errorf("BusyByRoutine[%v] = %v (present %v), want %v", r, g, ok, d)
		}
	}
}

func TestIdlePicksWFIForShortGap(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Idle(500*time.Microsecond, energy.DataTransfer, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != WFI {
		t.Errorf("state = %v, want WFI (gap below break-even %v)", c.State(), c.Params().SleepBreakEven())
	}
}

func TestIdlePicksSleepForLongGap(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Idle(20*time.Millisecond, energy.DataTransfer, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != Sleep {
		t.Errorf("state = %v, want Sleep", c.State())
	}
}

func TestIdlePicksDeepSleepOnlyWhenAllowed(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Idle(time.Second, energy.AppCompute, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != Sleep {
		t.Errorf("state = %v, want Sleep without allowDeep", c.State())
	}
	if err := c.Idle(time.Second, energy.AppCompute, true); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != DeepSleep {
		t.Errorf("state = %v, want DeepSleep", c.State())
	}
}

func TestIdleWhileBusyFails(t *testing.T) {
	c, s, _ := newCPU(t)
	if err := c.Exec(time.Millisecond, energy.AppCompute, nil); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if err := c.Idle(time.Second, energy.Idle, false); !errors.Is(err, ErrBusy) {
		t.Errorf("Idle while busy = %v, want ErrBusy", err)
	}
	run(t, s)
}

func TestWakeFromSleepChargesTransition(t *testing.T) {
	c, s, m := newCPU(t)
	if err := c.Idle(time.Second, energy.DataTransfer, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	// Sleep for 100 ms of virtual time, then new work arrives.
	if _, err := s.After(100*time.Millisecond, func() {
		if err := c.Exec(10*time.Millisecond, energy.Interrupt, nil); err != nil {
			t.Errorf("Exec: %v", err)
		}
	}); err != nil {
		t.Fatalf("After: %v", err)
	}
	run(t, s)
	p := c.Params()
	b := m.Total()
	wantSleep := p.SleepW * 0.1
	wantIrq := p.TransitionW*p.WakeFromSleep.Seconds() + p.ActiveW*0.01
	if math.Abs(b[energy.DataTransfer]-wantSleep) > 1e-9 {
		t.Errorf("sleep energy = %v, want %v", b[energy.DataTransfer], wantSleep)
	}
	if math.Abs(b[energy.Interrupt]-wantIrq) > 1e-9 {
		t.Errorf("wake+work energy = %v, want %v", b[energy.Interrupt], wantIrq)
	}
	if c.Wakes() != 1 {
		t.Errorf("Wakes = %d, want 1", c.Wakes())
	}
	// Work completion is delayed by the wake latency.
	if got, want := s.Now(), sim.Time(100*time.Millisecond+p.WakeFromSleep+10*time.Millisecond); got != want {
		t.Errorf("end time = %v, want %v", got, want)
	}
}

func TestSleepBreakEvenMatchesPaperShape(t *testing.T) {
	p := DefaultParams()
	be := p.SleepBreakEven()
	// 2.5 W × 1.6 ms / (1.2 − 0.5) W ≈ 5.7 ms: longer than the 1 ms sample
	// period (so Baseline never sleeps) and far shorter than a batching
	// window (so Batching always sleeps).
	if be <= time.Millisecond {
		t.Errorf("break-even %v too short: baseline would sleep between samples", be)
	}
	if be >= 100*time.Millisecond {
		t.Errorf("break-even %v too long: batching would never sleep", be)
	}
}

func TestSleepBreakEvenDegenerate(t *testing.T) {
	p := DefaultParams()
	p.SleepW = p.WFIW // no saving: break-even should be effectively infinite
	if got := p.SleepBreakEven(); got < time.Hour {
		t.Errorf("degenerate break-even = %v, want huge", got)
	}
}

func TestComputeTime(t *testing.T) {
	c, _, _ := newCPU(t)
	if got := c.ComputeTime(24_000); got != time.Second {
		t.Errorf("ComputeTime(24000 MI) = %v, want 1s", got)
	}
	if got := c.ComputeTime(24); got != time.Millisecond {
		t.Errorf("ComputeTime(24 MI) = %v, want 1ms", got)
	}
}

func TestBusyByRoutine(t *testing.T) {
	c, s, _ := newCPU(t)
	if err := c.Exec(5*time.Millisecond, energy.Interrupt, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(7*time.Millisecond, energy.DataTransfer, nil); err != nil {
		t.Fatal(err)
	}
	run(t, s)
	b := c.BusyByRoutine()
	if b[energy.Interrupt] != 5*time.Millisecond || b[energy.DataTransfer] != 7*time.Millisecond {
		t.Errorf("BusyByRoutine = %v", b)
	}
}

func TestDoneCallbackCanChainExec(t *testing.T) {
	c, s, _ := newCPU(t)
	var second sim.Time
	err := c.Exec(time.Millisecond, energy.Interrupt, func() {
		if err := c.Exec(time.Millisecond, energy.DataTransfer, func() { second = s.Now() }); err != nil {
			t.Errorf("chained Exec: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, s)
	if second != sim.Time(2*time.Millisecond) {
		t.Errorf("chained work ended at %v, want 2ms", second)
	}
}

func TestForceState(t *testing.T) {
	c, s, m := newCPU(t)
	if err := c.ForceState(Sleep, energy.Idle); err != nil {
		t.Fatalf("ForceState: %v", err)
	}
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	got := m.Total()[energy.Idle]
	if math.Abs(got-c.Params().SleepW) > 1e-9 {
		t.Errorf("idle-hub energy = %v, want %v", got, c.Params().SleepW)
	}
	if err := c.ForceState(Waking, energy.Idle); err == nil {
		t.Error("ForceState(Waking) accepted")
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Active: "Active", WFI: "WFI", Sleep: "Sleep",
		DeepSleep: "DeepSleep", Waking: "Waking", State(42): "State(42)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", int(st), got, want)
		}
	}
}
