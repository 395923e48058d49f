package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAtCallSeqRejects pins AtCallSeq's guards: a seq no Reserve handed out
// (never claimed, or claimed by At/AtCall) and an instant before Now are
// errors, and a rejected push schedules nothing.
func TestAtCallSeqRejects(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	if _, err := s.AtCallSeq(10, 0, rec, Arg{}); err == nil {
		t.Error("AtCallSeq under a seq before any Reserve: want error")
	}
	// Seqs 0-1 reserved, 2 taken by AtCall, 3-4 reserved.
	a := s.Reserve(2)
	if _, err := s.AtCall(5, rec, Arg{}); err != nil {
		t.Fatal(err)
	}
	b := s.Reserve(2)
	if a != 0 || b != 3 {
		t.Fatalf("Reserve bases = %d, %d, want 0, 3", a, b)
	}
	for _, tc := range []struct {
		seq uint64
		ok  bool
	}{{0, true}, {1, true}, {2, false}, {3, true}, {4, true}, {5, false}, {1 << 40, false}} {
		_, err := s.AtCallSeq(20, tc.seq, rec, Arg{})
		if (err == nil) != tc.ok {
			t.Errorf("AtCallSeq(seq=%d) err = %v, want ok=%v", tc.seq, err, tc.ok)
		}
	}
	if _, err := s.AtCallSeq(20, 0, nil, Arg{}); err == nil {
		t.Error("AtCallSeq with nil callback: want error")
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5 (one AtCall + four accepted AtCallSeq)", got)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := s.Reserve(1)
	if _, err := s.AtCallSeq(19, c, rec, Arg{}); err == nil {
		t.Errorf("AtCallSeq at 19 with Now=%v: want error", s.Now())
	}
	if _, err := s.AtCallSeq(20, c, rec, Arg{}); err != nil {
		t.Errorf("AtCallSeq at Now: %v", err)
	}
	if sched, _ := s.Stats(); sched != 6 {
		t.Errorf("scheduled = %d, want 6 (rejections schedule nothing)", sched)
	}
}

// TestReserveZeroClaimsNothing: an empty block neither advances the counter
// nor makes its base seq pushable.
func TestReserveZeroClaimsNothing(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	base := s.Reserve(0)
	if _, err := s.AtCallSeq(0, base, rec, Arg{}); err == nil {
		t.Error("AtCallSeq under an empty reservation's base: want error")
	}
	if next := s.Reserve(1); next != base {
		t.Errorf("Reserve(0) advanced the counter: next base %d, want %d", next, base)
	}
}

// TestResetClearsReservations: after Reset the reserved blocks and the heap
// high-water mark are gone, and the counter restarts at zero.
func TestResetClearsReservations(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	base := s.Reserve(8)
	for i := uint64(0); i < 3; i++ {
		if _, err := s.AtCallSeq(Time(i), base+i, rec, Arg{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.PeakPending(); got != 3 {
		t.Fatalf("PeakPending = %d, want 3", got)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.PeakPending(); got != 3 {
		t.Fatalf("PeakPending after drain = %d, want 3 (a high-water mark)", got)
	}
	s.Reset()
	if got := s.PeakPending(); got != 0 {
		t.Errorf("PeakPending after Reset = %d, want 0", got)
	}
	if _, err := s.AtCallSeq(0, 5, rec, Arg{}); err == nil {
		t.Error("AtCallSeq under a seq reserved before Reset: want error")
	}
	if got := s.Reserve(1); got != 0 {
		t.Errorf("first Reserve after Reset = %d, want 0", got)
	}
}

// seriesWorkload is one randomized kernel workload: periodic series plus
// one-shot events at deliberately colliding instants, some scheduled up
// front and some spawned by dispatching events. chained selects how the
// series run: fully pre-enqueued with AtCall, or reserved with Reserve and
// chained member by member through AtCallSeq.
type seriesWorkload struct {
	s       *Scheduler
	rng     *rand.Rand
	chained bool
	series  []series
	spawns  int // one-shot budget left for dispatch-time spawning
	nextID  int
	log     []string
}

type series struct {
	start, period Time
	n             int
	base          uint64
}

func (w *seriesWorkload) OnEvent(a Arg) {
	switch a.Op {
	case 1: // series member: I0 series index, I1 member index
		sr := &w.series[a.I0]
		k := int(a.I1)
		if w.chained && k+1 < sr.n {
			at := sr.start + Time(k+1)*sr.period
			if _, err := w.s.AtCallSeq(at, sr.base+uint64(k+1), w, Arg{Op: 1, I0: a.I0, I1: int64(k + 1)}); err != nil {
				panic(err)
			}
		}
		w.log = append(w.log, fmt.Sprintf("%d s%d.%d", w.s.Now(), a.I0, k))
	case 2: // one-shot
		w.log = append(w.log, fmt.Sprintf("%d o%d", w.s.Now(), a.I0))
	}
	w.maybeSpawn()
}

// maybeSpawn schedules a one-shot a few ticks ahead — often at Now itself —
// alternating the closure and typed forms.
func (w *seriesWorkload) maybeSpawn() {
	if w.spawns == 0 || w.rng.Intn(3) != 0 {
		return
	}
	w.spawns--
	w.oneShot(w.s.Now() + Time(w.rng.Intn(4)))
}

func (w *seriesWorkload) oneShot(at Time) {
	id := w.nextID
	w.nextID++
	var err error
	if w.rng.Intn(2) == 0 {
		_, err = w.s.AtCall(at, w, Arg{Op: 2, I0: int64(id)})
	} else {
		_, err = w.s.At(at, func() {
			w.log = append(w.log, fmt.Sprintf("%d f%d", w.s.Now(), id))
			w.maybeSpawn()
		})
	}
	if err != nil {
		panic(err)
	}
}

// runSeriesWorkload builds and drains the workload for seed. Both modes draw
// the same random decisions as long as they dispatch in the same order.
func runSeriesWorkload(seed int64, chained bool) (log []string, scheduled uint64, peak int) {
	w := &seriesWorkload{s: NewScheduler(), rng: rand.New(rand.NewSource(seed)), chained: chained, spawns: 200}
	// Setup interleaves series arming with up-front one-shots, so reserved
	// blocks sit between ordinary seqs.
	for nSeries := 1 + w.rng.Intn(6); len(w.series) < nSeries; {
		for w.rng.Intn(2) == 0 {
			w.oneShot(Time(w.rng.Intn(40)))
		}
		sr := series{start: Time(w.rng.Intn(5)), period: Time(w.rng.Intn(6)), n: w.rng.Intn(30)}
		i := int64(len(w.series))
		w.series = append(w.series, sr)
		switch {
		case sr.n == 0:
		case chained:
			w.series[i].base = w.s.Reserve(sr.n)
			if _, err := w.s.AtCallSeq(sr.start, w.series[i].base, w, Arg{Op: 1, I0: i}); err != nil {
				panic(err)
			}
		default:
			for k := 0; k < sr.n; k++ {
				if _, err := w.s.AtCall(sr.start+Time(k)*sr.period, w, Arg{Op: 1, I0: i, I1: int64(k)}); err != nil {
					panic(err)
				}
			}
		}
	}
	if err := w.s.Run(); err != nil {
		panic(err)
	}
	scheduled, _ = w.s.Stats()
	return w.log, scheduled, w.s.PeakPending()
}

// TestPropertyChainedSeriesMatchesPreEnqueued is the kernel half of the
// reserved-seq contract: a periodic series chained through Reserve and
// AtCallSeq dispatches in exactly the order of the same series fully
// pre-enqueued — against one-shots at colliding instants scheduled both
// before the run and from inside it — and schedules the same event count.
func TestPropertyChainedSeriesMatchesPreEnqueued(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		want, wantN, prePeak := runSeriesWorkload(seed, false)
		got, gotN, chainPeak := runSeriesWorkload(seed, true)
		if gotN != wantN {
			t.Fatalf("seed %d: chained scheduled %d events, pre-enqueued %d", seed, gotN, wantN)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: chained dispatched %d events, pre-enqueued %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d is %q chained, %q pre-enqueued", seed, i, got[i], want[i])
			}
		}
		if chainPeak > prePeak {
			t.Fatalf("seed %d: chained peak %d above pre-enqueued peak %d", seed, chainPeak, prePeak)
		}
	}
}
