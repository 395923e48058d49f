package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesReferenceSlice drives random push-back / push-front / pop
// interleavings (with the odd Reset) against a plain slice model: every
// popped value, Front and Len must agree.
func TestFIFOMatchesReferenceSlice(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f FIFO[int]
		var ref []int
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(20); {
			case k < 8:
				f.PushBack(op)
				ref = append(ref, op)
			case k < 11:
				f.PushFront(op)
				ref = append([]int{op}, ref...)
			case k < 19:
				if len(ref) == 0 {
					continue
				}
				if got := f.Front(); got != ref[0] {
					t.Fatalf("seed %d op %d: Front = %d, want %d", seed, op, got, ref[0])
				}
				if got := f.PopFront(); got != ref[0] {
					t.Fatalf("seed %d op %d: PopFront = %d, want %d", seed, op, got, ref[0])
				}
				ref = ref[1:]
			default:
				if rng.Intn(10) == 0 {
					f.Reset()
					ref = nil
				}
			}
			if f.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, f.Len(), len(ref))
			}
		}
	}
}

// TestFIFOCapacityBoundedByPeakDepth runs an overloaded queue that never
// drains — depth oscillates between 1 and 64 over 100k pushes. A queue whose
// head rewinds only when empty would grow with the pushes; the ring must
// stay within twice its peak depth (or the first allocation).
func TestFIFOCapacityBoundedByPeakDepth(t *testing.T) {
	var f FIFO[int]
	f.PushBack(-1)
	pushes, peak := 0, 1
	for pushes < 100_000 {
		for f.Len() < 64 {
			f.PushBack(pushes)
			pushes++
			peak = max(peak, f.Len())
		}
		for f.Len() > 1 {
			f.PopFront()
		}
		if f.Cap() > max(2*peak, fifoMinCap) {
			t.Fatalf("after %d pushes: cap %d, peak depth %d", pushes, f.Cap(), peak)
		}
	}
	t.Logf("%d pushes, peak depth %d, cap %d", pushes, peak, f.Cap())
}

// TestFIFOZeroesPoppedAndResetSlots checks that no slot outside the live
// range holds a value: a popped or reset Done must not keep its callback or
// payload reachable.
func TestFIFOZeroesPoppedAndResetSlots(t *testing.T) {
	var f FIFO[Done]
	payload := &struct{ big [1 << 10]byte }{}
	item := Done{CB: funcCB(func() {}), Arg: Arg{Op: 1, P0: payload}}
	live := func() map[int]bool {
		m := make(map[int]bool, f.n)
		for i := 0; i < f.n; i++ {
			m[(f.head+i)&(len(f.buf)-1)] = true
		}
		return m
	}
	assertDeadZero := func(when string) {
		t.Helper()
		in := live()
		for i := range f.buf {
			if !in[i] && (f.buf[i].CB != nil || f.buf[i].Arg != (Arg{})) {
				t.Fatalf("%s: dead slot %d retains %+v", when, i, f.buf[i])
			}
		}
	}
	for i := 0; i < 11; i++ {
		f.PushBack(item)
	}
	f.PushFront(item)
	for i := 0; i < 7; i++ {
		f.PopFront()
		assertDeadZero("after PopFront")
	}
	f.Reset()
	assertDeadZero("after Reset")
	if f.Len() != 0 || f.Cap() == 0 {
		t.Errorf("after Reset: Len %d Cap %d, want 0 >0", f.Len(), f.Cap())
	}
}

// TestFIFOSteadyStateZeroAlloc pins that a warmed-up queue pushes and pops
// without allocating.
func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var f FIFO[Done]
	item := Done{Arg: Arg{Op: 1, I0: 7}}
	for i := 0; i < 32; i++ {
		f.PushBack(item)
	}
	f.Reset()
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 24; i++ {
			f.PushBack(item)
		}
		f.PushFront(item)
		for f.Len() > 0 {
			f.PopFront()
		}
	})
	if got != 0 {
		t.Errorf("steady-state push/pop allocates %.1f times per run, want 0", got)
	}
}
