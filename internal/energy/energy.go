// Package energy implements the power/energy accounting used throughout the
// simulator — the software analog of the Monsoon power monitor the paper
// attaches to the IoT hub's power-delivery socket.
//
// Each hardware component (CPU, MCU, link, individual sensors) owns a Track.
// The component reports every power-level change as it happens on the virtual
// timeline; the meter integrates power over time and attributes the resulting
// energy to one of the paper's four routines (plus Idle). A Breakdown can be
// taken at any instant and is exact: no sampling error, because the power
// waveform is piecewise constant between reported transitions.
//
// The accounting is designed to be invisible to the workload it measures:
// Routine is a dense enum, so a Track accrues joules into a fixed array, a
// power transition (Track.Set) performs zero allocations, and a redundant
// transition (same watts, same routine) is a no-op that neither settles nor
// records a duplicate trace sample.
package energy

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"iothub/internal/sim"
)

// Routine identifies which of the paper's execution routines energy is
// attributed to (§II-B). Idle covers time outside any app's window.
type Routine int

const (
	// DataCollection is sensor reading and driver formatting on the MCU.
	DataCollection Routine = iota + 1
	// Interrupt is MCU→CPU interrupt raising and CPU interrupt handling.
	Interrupt
	// DataTransfer is moving sensor data over the link, including CPU time
	// spent stalling for sensor data (the paper charges stalls here, §III-A).
	DataTransfer
	// AppCompute is the app-specific user-level computation.
	AppCompute
	// Idle is baseline draw outside any attributable routine.
	Idle
)

// routineSlots sizes the dense per-routine arrays: slot 0 is reserved (it
// carries a Breakdown's presence mask), slots 1..5 are the Routines.
const routineSlots = int(Idle) + 1

// Routines lists all routines in display order.
var Routines = []Routine{DataCollection, Interrupt, DataTransfer, AppCompute, Idle}

// Known reports whether r is one of the five routines.
func (r Routine) Known() bool { return r >= DataCollection && r <= Idle }

// RoutineTimes accumulates time per routine on a dense array, the per-event
// form of a routine-keyed busy map. A presence mask records every routine
// ever added, so a zero-length item still yields a (zero) entry in Map,
// exactly as a map update would. The zero value is empty.
type RoutineTimes struct {
	d    [routineSlots]time.Duration
	seen uint8 // bit r set once routine r has been added
}

// Add accrues d to routine r, which must be Known.
func (t *RoutineTimes) Add(r Routine, d time.Duration) {
	t.d[r] += d
	t.seen |= 1 << uint(r)
}

// Map returns the accrued times keyed by routine, one entry per routine
// ever added.
func (t *RoutineTimes) Map() map[Routine]time.Duration {
	out := make(map[Routine]time.Duration, bits.OnesCount8(t.seen))
	for _, r := range Routines {
		if t.seen&(1<<uint(r)) != 0 {
			out[r] = t.d[r]
		}
	}
	return out
}

// String returns the paper's label for the routine.
func (r Routine) String() string {
	switch r {
	case DataCollection:
		return "DataCollection"
	case Interrupt:
		return "Interrupt"
	case DataTransfer:
		return "DataTransfer"
	case AppCompute:
		return "AppCompute"
	case Idle:
		return "Idle"
	default:
		return fmt.Sprintf("Routine(%d)", int(r))
	}
}

// MarshalText encodes the routine as its display label, so routine-keyed
// maps (busy-time tables) serialize to JSON with readable keys instead of
// bare integers.
func (r Routine) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (r *Routine) UnmarshalText(text []byte) error {
	for _, known := range Routines {
		if known.String() == string(text) {
			*r = known
			return nil
		}
	}
	return fmt.Errorf("energy: unknown routine %q", text)
}

// Sample is one point of a recorded power trace.
type Sample struct {
	At    sim.Time
	Watts float64
	R     Routine
}

// Track accumulates the energy of a single component. Joules accrue into a
// fixed per-routine array — the hot path (Set/settle) touches no maps and
// performs no allocations.
type Track struct {
	name    string
	clock   *sim.Scheduler
	lastAt  sim.Time
	watts   float64
	routine Routine
	joules  [routineSlots]float64
	touched uint8 // bit r set once routine r has accrued an interval
	trace   []Sample
	tracing bool
	gen     uint32 // meter generation this track is live in
}

// Meter owns the tracks of all components on one virtual timeline.
//
// A meter can be reset and reused across simulation runs: Reset bumps a
// generation counter and empties the live views, while the tracks map keeps
// every Track ever created as a pool. The next Track(name) call for a pooled
// name reinitializes that Track in place (retaining its trace capacity) and
// re-registers it, so a reused meter behaves — and serializes — exactly like
// a fresh one as long as tracks are re-registered in the same order.
type Meter struct {
	clock  *sim.Scheduler
	tracks map[string]*Track // pool: every track ever created, live or stale
	order  []string          // creation order of live tracks, for Components
	sorted []*Track          // name-sorted live tracks; Total's summation order
	gen    uint32            // bumped by Reset; tracks with gen != this are stale
}

// NewMeter returns a meter bound to the given virtual clock.
func NewMeter(clock *sim.Scheduler) *Meter {
	return &Meter{clock: clock, tracks: make(map[string]*Track)}
}

// Track returns the named component track, creating it (at zero watts,
// routine Idle) on first use. After a Reset, the first call for a previously
// seen name revives the pooled Track in place instead of allocating.
func (m *Meter) Track(name string) *Track {
	if tr, ok := m.tracks[name]; ok {
		if tr.gen != m.gen {
			tr.revive(m.gen, m.clock.Now())
			m.register(tr)
		}
		return tr
	}
	tr := &Track{
		name:    name,
		clock:   m.clock,
		lastAt:  m.clock.Now(),
		routine: Idle,
		gen:     m.gen,
	}
	m.tracks[name] = tr
	m.register(tr)
	return tr
}

// register adds tr to the live views: creation order and the sorted slice.
func (m *Meter) register(tr *Track) {
	m.order = append(m.order, tr.name)
	// Keep the sorted view incrementally so Total never re-sorts: insert at
	// the track's rank among existing names. Sorted summation order keeps
	// Meter.Total's float accumulation bit-identical run to run.
	i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].name >= tr.name })
	m.sorted = append(m.sorted, nil)
	copy(m.sorted[i+1:], m.sorted[i:])
	m.sorted[i] = tr
}

// revive reinitializes a pooled track to the fresh-construction state,
// retaining only the trace buffer's capacity.
func (tr *Track) revive(gen uint32, now sim.Time) {
	tr.gen = gen
	tr.lastAt = now
	tr.watts = 0
	tr.routine = Idle
	tr.joules = [routineSlots]float64{}
	tr.touched = 0
	if tr.trace != nil {
		tr.trace = tr.trace[:0]
	}
	tr.tracing = false
}

// Reset prepares the meter for a new run on the (also reset) clock: the live
// track views are emptied and the generation counter bumps, invalidating
// every outstanding *Track. Tracks stay pooled — re-requesting the same
// names in the same order reproduces a fresh meter without allocating.
func (m *Meter) Reset() {
	m.gen++
	m.order = m.order[:0]
	for i := range m.sorted {
		m.sorted[i] = nil
	}
	m.sorted = m.sorted[:0]
}

// Components lists track names in creation order.
func (m *Meter) Components() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Set reports that the component now draws watts attributed to routine r.
// The interval since the previous report is integrated at the previous
// level. Reporting the level already in effect records no duplicate trace
// sample, so chatty callers don't bloat traces; it still settles at the
// report instant, keeping the float accumulation grouping (and therefore
// every serialized joule) bit-identical whether or not callers dedup
// themselves.
func (tr *Track) Set(watts float64, r Routine) {
	if watts == tr.watts && r == tr.routine {
		tr.settle()
		return
	}
	tr.settle()
	tr.watts = watts
	tr.routine = r
	if tr.tracing {
		tr.trace = append(tr.trace, Sample{At: tr.clock.Now(), Watts: watts, R: r})
	}
}

// Deposit attributes j joules to routine r at the current instant — a point
// mass on the waveform for costs that are energies, not power levels (an ADC
// conversion, a flash write burst). The interval so far is settled first, so
// deposits never disturb the piecewise-constant integration or the trace.
func (tr *Track) Deposit(j float64, r Routine) {
	tr.settle()
	tr.joules[r] += j
	tr.touched |= 1 << uint(r)
}

// Watts reports the component's current power draw.
func (tr *Track) Watts() float64 { return tr.watts }

// Routine reports the routine the current draw is attributed to.
func (tr *Track) Routine() Routine { return tr.routine }

// settle integrates energy up to the current instant.
func (tr *Track) settle() {
	now := tr.clock.Now()
	dt := now - tr.lastAt
	if dt > 0 {
		tr.joules[tr.routine] += tr.watts * float64(dt) / float64(time.Second)
		tr.touched |= 1 << uint(tr.routine)
	}
	tr.lastAt = now
}

// EnableTrace starts recording every power transition (plus an initial
// sample) so a power-state timeline (Figure 5) can be rendered afterwards.
// The buffer is preallocated; consecutive identical samples never appear
// because Set dedups redundant transitions.
func (tr *Track) EnableTrace() {
	if tr.tracing {
		return
	}
	tr.tracing = true
	if tr.trace == nil {
		tr.trace = make([]Sample, 0, 256)
	}
	tr.trace = append(tr.trace, Sample{At: tr.clock.Now(), Watts: tr.watts, R: tr.routine})
}

// TraceSamples returns a copy of the recorded power trace.
func (tr *Track) TraceSamples() []Sample {
	out := make([]Sample, len(tr.trace))
	copy(out, tr.trace)
	return out
}

// Breakdown is energy per routine, in joules, backed by a dense array:
// index r holds routine r's joules. Index 0 is reserved — it stores a small
// presence bitmask distinguishing "accrued exactly zero joules" (e.g. a 0 W
// idle stretch) from "never ran", which keeps serialized breakdowns
// byte-identical to the old map representation. Construct literals with
// routine-keyed indices (Breakdown{DataTransfer: 8}) or NewBreakdown; use
// Get/Has to read entries of unknown provenance safely.
type Breakdown []float64

// NewBreakdown returns an empty full-size breakdown that can be indexed by
// any Routine.
func NewBreakdown() Breakdown { return make(Breakdown, routineSlots) }

// Get reports routine r's joules (0 when absent). Unlike direct indexing it
// is safe on short or nil breakdowns.
func (b Breakdown) Get(r Routine) float64 {
	if i := int(r); i > 0 && i < len(b) {
		return b[i]
	}
	return 0
}

// Has reports whether routine r has an entry: either a nonzero value or a
// zero explicitly accrued (presence bit set).
func (b Breakdown) Has(r Routine) bool {
	i := int(r)
	if i <= 0 || i >= len(b) {
		return false
	}
	return b[i] != 0 || b.mask()&(1<<uint(i)) != 0
}

func (b Breakdown) mask() uint64 {
	if len(b) == 0 {
		return 0
	}
	return uint64(b[0])
}

// Total sums all routines. Summation follows the fixed Routines order so
// identical breakdowns always total to the bit-identical float.
func (b Breakdown) Total() float64 {
	var sum float64
	for _, r := range Routines {
		sum += b.Get(r)
	}
	return sum
}

// Attributed sums all routines except Idle — the energy the paper's
// normalized figures account for.
func (b Breakdown) Attributed() float64 {
	return b.Total() - b.Get(Idle)
}

// Fraction reports routine r's share of the attributed (non-idle) energy,
// or 0 when nothing was attributed.
func (b Breakdown) Fraction(r Routine) float64 {
	att := b.Attributed()
	if att <= 0 {
		return 0
	}
	if r == Idle {
		return 0
	}
	return b.Get(r) / att
}

// Add returns the element-wise sum of b and other. Routines whose sum is
// zero are absent from the result.
func (b Breakdown) Add(other Breakdown) Breakdown {
	out := NewBreakdown()
	for _, r := range Routines {
		if v := b.Get(r) + other.Get(r); v != 0 {
			out[r] = v
		}
	}
	return out
}

// Scale returns b with every entry multiplied by k. Presence is preserved:
// entries of b remain entries of the result.
func (b Breakdown) Scale(k float64) Breakdown {
	out := NewBreakdown()
	var mask uint64
	for _, r := range Routines {
		if b.Has(r) {
			out[r] = b.Get(r) * k
			mask |= 1 << uint(r)
		}
	}
	out[0] = float64(mask)
	return out
}

// String formats the breakdown in millijoules for logs and CLI output.
func (b Breakdown) String() string {
	s := ""
	for _, r := range Routines {
		if b.Has(r) {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%.2fmJ", r, b.Get(r)*1e3)
		}
	}
	if s == "" {
		return "(empty)"
	}
	return s
}

// MarshalJSON keeps the historical JSON shape: an object keyed by routine
// label, lexically sorted, with one entry per present routine.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, len(Routines))
	for _, r := range Routines {
		if b.Has(r) {
			m[r.String()] = b.Get(r)
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON is the inverse of MarshalJSON; explicit zero entries survive
// the round trip.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := NewBreakdown()
	var mask uint64
	for k, v := range m {
		var r Routine
		if err := r.UnmarshalText([]byte(k)); err != nil {
			return err
		}
		out[r] = v
		mask |= 1 << uint(r)
	}
	out[0] = float64(mask)
	*b = out
	return nil
}

// Breakdown integrates up to now and returns the component's per-routine
// energy so far.
func (tr *Track) Breakdown() Breakdown {
	return tr.BreakdownInto(nil)
}

// BreakdownInto is Breakdown reusing dst's storage when it has capacity —
// the zero-allocation variant for callers polling a track in a loop.
func (tr *Track) BreakdownInto(dst Breakdown) Breakdown {
	tr.settle()
	if cap(dst) < routineSlots {
		dst = NewBreakdown()
	}
	dst = dst[:routineSlots]
	copy(dst, tr.joules[:])
	dst[0] = float64(tr.touched)
	return dst
}

// Total integrates up to now and returns the meter-wide per-routine energy
// summed over all components, accumulated in name order (the incrementally
// maintained sorted view — no per-call sort or re-keying).
func (m *Meter) Total() Breakdown {
	out := NewBreakdown()
	var mask uint64
	for _, tr := range m.sorted {
		tr.settle()
		mask |= uint64(tr.touched)
		for _, r := range Routines {
			if tr.touched&(1<<uint(r)) != 0 {
				out[r] += tr.joules[r]
			}
		}
	}
	out[0] = float64(mask)
	return out
}

// TotalJoules integrates every live track up to now and returns the
// meter-wide energy as one scalar, without materializing a Breakdown — the
// allocation-free form for callers that poll the meter, like the battery
// ledger settling at every tick. Summation runs over the same name-sorted
// track order as Total, so the value is a deterministic function of the
// run — identical across replays and arena reuse.
func (m *Meter) TotalJoules() float64 {
	var sum float64
	for _, tr := range m.sorted {
		tr.settle()
		for _, r := range Routines {
			if tr.touched&(1<<uint(r)) != 0 {
				sum += tr.joules[r]
			}
		}
	}
	return sum
}

// ByComponent integrates up to now and returns per-component totals (all
// routines summed), keyed by track name. Only live tracks are reported —
// after a Reset, pooled tracks that have not been re-requested are invisible.
func (m *Meter) ByComponent() map[string]float64 {
	out := make(map[string]float64, len(m.order))
	for _, name := range m.order {
		out[name] = m.tracks[name].Breakdown().Total()
	}
	return out
}
