package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"iothub/internal/sim"
)

const eps = 1e-12

func advance(t *testing.T, s *sim.Scheduler, d time.Duration) {
	t.Helper()
	if err := s.RunUntil(s.Now().Add(d)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
}

func TestTrackIntegratesConstantPower(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	cpu := m.Track("cpu")
	cpu.Set(5, AppCompute)
	advance(t, s, 2*time.Second)
	b := cpu.Breakdown()
	if got := b[AppCompute]; math.Abs(got-10) > eps {
		t.Errorf("AppCompute = %v J, want 10", got)
	}
}

func TestTrackSplitsAcrossRoutines(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	cpu := m.Track("cpu")
	cpu.Set(4, DataTransfer)
	advance(t, s, 500*time.Millisecond)
	cpu.Set(2, Interrupt)
	advance(t, s, 250*time.Millisecond)
	cpu.Set(0, Idle)
	advance(t, s, time.Second)
	b := cpu.Breakdown()
	if got := b[DataTransfer]; math.Abs(got-2.0) > eps {
		t.Errorf("DataTransfer = %v, want 2.0", got)
	}
	if got := b[Interrupt]; math.Abs(got-0.5) > eps {
		t.Errorf("Interrupt = %v, want 0.5", got)
	}
	if got := b.Total(); math.Abs(got-2.5) > eps {
		t.Errorf("Total = %v, want 2.5", got)
	}
}

func TestTrackZeroPowerBeforeFirstSet(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	cpu := m.Track("cpu")
	advance(t, s, time.Second)
	cpu.Set(1, AppCompute)
	advance(t, s, time.Second)
	b := cpu.Breakdown()
	if got := b.Total(); math.Abs(got-1) > eps {
		t.Errorf("Total = %v, want 1 (first second at 0 W)", got)
	}
}

func TestTrackCreatedMidRunStartsAtNow(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	advance(t, s, time.Second)
	late := m.Track("late")
	late.Set(3, AppCompute)
	advance(t, s, time.Second)
	if got := late.Breakdown().Total(); math.Abs(got-3) > eps {
		t.Errorf("Total = %v, want 3 (no retroactive charge)", got)
	}
}

func TestMeterTotalSumsComponents(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	m.Track("cpu").Set(5, AppCompute)
	m.Track("mcu").Set(1, DataCollection)
	advance(t, s, time.Second)
	total := m.Total()
	if got := total[AppCompute]; math.Abs(got-5) > eps {
		t.Errorf("AppCompute = %v, want 5", got)
	}
	if got := total[DataCollection]; math.Abs(got-1) > eps {
		t.Errorf("DataCollection = %v, want 1", got)
	}
	by := m.ByComponent()
	if math.Abs(by["cpu"]-5) > eps || math.Abs(by["mcu"]-1) > eps {
		t.Errorf("ByComponent = %v", by)
	}
}

func TestMeterTrackIsIdempotent(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	a := m.Track("cpu")
	b := m.Track("cpu")
	if a != b {
		t.Fatal("Track returned distinct tracks for the same name")
	}
	if got := len(m.Components()); got != 1 {
		t.Errorf("Components len = %d, want 1", got)
	}
}

func TestComponentsOrderStable(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	m.Track("b")
	m.Track("a")
	m.Track("c")
	got := m.Components()
	want := []string{"b", "a", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Components = %v, want %v", got, want)
		}
	}
}

func TestBreakdownFractionAndAttributed(t *testing.T) {
	b := Breakdown{DataTransfer: 8, Interrupt: 1, AppCompute: 1, Idle: 10}
	if got := b.Attributed(); math.Abs(got-10) > eps {
		t.Errorf("Attributed = %v, want 10", got)
	}
	if got := b.Fraction(DataTransfer); math.Abs(got-0.8) > eps {
		t.Errorf("Fraction(DataTransfer) = %v, want 0.8", got)
	}
	if got := b.Fraction(Idle); got != 0 {
		t.Errorf("Fraction(Idle) = %v, want 0", got)
	}
	var empty Breakdown
	if got := empty.Fraction(AppCompute); got != 0 {
		t.Errorf("empty Fraction = %v, want 0", got)
	}
}

func TestBreakdownAddScale(t *testing.T) {
	a := Breakdown{DataTransfer: 1, Interrupt: 2}
	b := Breakdown{DataTransfer: 3, AppCompute: 4}
	sum := a.Add(b)
	if sum[DataTransfer] != 4 || sum[Interrupt] != 2 || sum[AppCompute] != 4 {
		t.Errorf("Add = %v", sum)
	}
	sc := sum.Scale(0.5)
	if sc[DataTransfer] != 2 || sc[Interrupt] != 1 || sc[AppCompute] != 2 {
		t.Errorf("Scale = %v", sc)
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{DataTransfer: 0.001}
	if got := b.String(); got != "DataTransfer=1.00mJ" {
		t.Errorf("String = %q", got)
	}
	var empty Breakdown
	if got := empty.String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
}

func TestRoutineString(t *testing.T) {
	cases := map[Routine]string{
		DataCollection: "DataCollection",
		Interrupt:      "Interrupt",
		DataTransfer:   "DataTransfer",
		AppCompute:     "AppCompute",
		Idle:           "Idle",
		Routine(42):    "Routine(42)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestTraceRecordsTransitions(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	cpu := m.Track("cpu")
	cpu.Set(5, AppCompute)
	cpu.EnableTrace()
	advance(t, s, time.Millisecond)
	cpu.Set(1.5, Idle)
	advance(t, s, time.Millisecond)
	cpu.Set(5, Interrupt)
	got := cpu.TraceSamples()
	if len(got) != 3 {
		t.Fatalf("trace len = %d, want 3 (initial + 2 transitions)", len(got))
	}
	if got[0].Watts != 5 || got[1].Watts != 1.5 || got[2].Watts != 5 {
		t.Errorf("trace watts = %v", got)
	}
	if got[1].At != sim.Time(time.Millisecond) {
		t.Errorf("second sample at %v, want 1ms", got[1].At)
	}
	cpu.EnableTrace() // idempotent
	if len(cpu.TraceSamples()) != 3 {
		t.Error("EnableTrace twice duplicated samples")
	}
}

// Property: total energy equals power × elapsed time for any sequence of
// power levels with random dwell times, regardless of routine labels.
func TestPropertyEnergyConservation(t *testing.T) {
	f := func(levels []uint8, dwellMicros []uint16) bool {
		n := len(levels)
		if len(dwellMicros) < n {
			n = len(dwellMicros)
		}
		s := sim.NewScheduler()
		m := NewMeter(s)
		tr := m.Track("c")
		var want float64
		for i := 0; i < n; i++ {
			w := float64(levels[i]) / 10
			d := time.Duration(dwellMicros[i]) * time.Microsecond
			tr.Set(w, Routines[i%len(Routines)])
			if err := s.RunUntil(s.Now().Add(d)); err != nil {
				return false
			}
			want += w * d.Seconds()
		}
		got := tr.Breakdown().Total()
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Breakdown is monotone — taking it twice without advancing time
// returns identical values, and advancing time at positive power never
// decreases the total.
func TestPropertyBreakdownMonotone(t *testing.T) {
	f := func(steps []uint8) bool {
		s := sim.NewScheduler()
		m := NewMeter(s)
		tr := m.Track("c")
		tr.Set(1, AppCompute)
		prev := 0.0
		for _, st := range steps {
			if err := s.RunUntil(s.Now().Add(time.Duration(st) * time.Microsecond)); err != nil {
				return false
			}
			b1 := tr.Breakdown().Total()
			b2 := tr.Breakdown().Total()
			if b1 != b2 {
				return false
			}
			if b1 < prev {
				return false
			}
			prev = b1
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRoutineTimesMatchesMap drives random adds (zero lengths included)
// into a RoutineTimes and a routine-keyed map: Map must return the same key
// set and values, and the zero value must be empty.
func TestRoutineTimesMatchesMap(t *testing.T) {
	var empty RoutineTimes
	if got := empty.Map(); len(got) != 0 {
		t.Fatalf("zero RoutineTimes.Map() = %v, want empty", got)
	}
	f := func(rs []uint8, ds []uint16) bool {
		var rt RoutineTimes
		ref := map[Routine]time.Duration{}
		for i, b := range rs {
			r := Routines[int(b)%len(Routines)]
			d := time.Duration(0)
			if i < len(ds) {
				d = time.Duration(ds[i]%4) * time.Microsecond // zero a quarter of the time
			}
			rt.Add(r, d)
			ref[r] += d
		}
		got := rt.Map()
		if len(got) != len(ref) {
			return false
		}
		for r, d := range ref {
			if g, ok := got[r]; !ok || g != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, r := range Routines {
		if !r.Known() {
			t.Errorf("%v not Known", r)
		}
	}
	for _, r := range []Routine{0, Idle + 1, -1} {
		if r.Known() {
			t.Errorf("%v Known", r)
		}
	}
}
