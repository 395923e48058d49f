package fleet

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"iothub/internal/core"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/scheme"
)

// Options tune one sweep execution without changing what it computes: the
// same spec yields byte-identical aggregates under any Options.
type Options struct {
	// Workers is the pool size (0 = Spec.Workers, then GOMAXPROCS).
	Workers int
	// Journal is the checkpoint file path ("" = no journal).
	Journal string
	// Resume replays an existing journal at Journal and continues from the
	// first unfinished scenario. Without Resume an existing journal is
	// truncated and the sweep starts over.
	Resume bool
	// Progress, when non-nil, receives coarse progress lines.
	Progress io.Writer
	// MaxScenarios, when > 0, stops the sweep after that many scenarios
	// have been applied (counting resumed ones) and leaves the journal
	// resumable — the hook the interrupt-and-resume tests use.
	MaxScenarios int
	// Gauges, when non-nil, receives live sweep state (scenarios done,
	// worker occupancy, aggregate fingerprints) — the backing store of
	// iotfleet's Prometheus endpoint. Nil allocates a private set so
	// progress lines always carry rate and ETA.
	Gauges *obs.Gauges
}

// ScenarioError records one failed scenario; the sweep keeps going.
type ScenarioError struct {
	Index int
	Label string
	Err   string
}

// Result is a completed (or MaxScenarios-truncated) sweep.
type Result struct {
	// Agg holds the streaming aggregates in scenario-index order.
	Agg *Aggregator
	// Scenarios is the expanded sweep size; Completed counts scenarios
	// applied this run plus any resumed from the journal; Resumed counts
	// only the latter.
	Scenarios int
	Completed int
	Resumed   int
	// Failed lists scenarios whose run errored (also counted in
	// Agg.Errors). Failures seen only in a resumed journal prefix carry the
	// journal's recorded error text.
	Failed []ScenarioError
	// Warnings lists non-fatal conditions tolerated during the run, e.g. a
	// journal whose final record was truncated by a crash mid-write.
	Warnings []string
}

// RunScenario materializes and executes one scenario, planning the partition
// when the scheme's registry entry calls for one — BCOM today, any future
// partitioned scheme without changes here (this is the planner-aware sibling
// of hub.RunScenario). It runs in a throwaway arena, so the result owns its
// storage outright.
func RunScenario(s hub.Scenario) (*hub.RunResult, error) {
	return RunScenarioIn(hub.NewArena(), s)
}

// RunScenarioIn is RunScenario executing in a caller-owned arena — what the
// fleet workers run, one arena per worker, so back-to-back scenarios reuse
// the scheduler, meter, and device stack instead of reconstructing them. The
// returned result is only valid until the arena's next run (see the
// retention contract in hub's arena); callers that keep it must Clone it.
func RunScenarioIn(a *hub.Arena, s hub.Scenario) (*hub.RunResult, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	def, err := scheme.Lookup(s.Scheme)
	if err != nil {
		return nil, err
	}
	if def.RequiresAssign() && cfg.Assign == nil {
		// A scenario carrying its own explicit partition (Hybrid plans, or a
		// pinned BCOM split) runs it verbatim; only a nil Assign invokes the
		// planner's admission test.
		plan, err := core.PlanBCOM(cfg.Apps, hub.DefaultParams())
		if err != nil {
			return nil, err
		}
		cfg.Assign = plan.Assign
	}
	return a.Run(cfg)
}

// execScenario is the worker pool's execution function, a seam the panic
// recovery tests swap to inject failures.
var execScenario = RunScenarioIn

// safeRun executes one scenario in *ap and converts a panic into a scenario
// error carrying the label and seed, so one pathological scenario fails
// alone instead of killing the whole sweep. A panic leaves the arena in an
// unknowable mid-run state, so it is replaced with a fresh one.
func safeRun(ap **hub.Arena, s hub.Scenario) (r *hub.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			*ap = hub.NewArena()
			r = nil
			err = fmt.Errorf("fleet: scenario %s (seed %d) panicked: %v", s.Label(), s.Seed, p)
		}
	}()
	return execScenario(*ap, s)
}

// Run executes the sweep: open the fold (replaying the journal on resume),
// run every not-yet-folded scenario on the worker pool, and fold the records
// in strict scenario-index order, so the final aggregates are byte-identical
// for any worker count.
func Run(spec Spec, opt Options) (*Result, error) {
	if opt.Workers == 0 {
		opt.Workers = spec.Workers
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Workers < 1 {
		return nil, fmt.Errorf("fleet: %d workers, want >= 1", opt.Workers)
	}
	if opt.Gauges == nil {
		opt.Gauges = obs.NewGauges()
	}
	sw, err := OpenSweep(spec, opt)
	if err != nil {
		return nil, err
	}
	err = runPool(sw.Scens, sw.Result.Completed, sw.Limit, opt.Workers, opt.Gauges, sw.Fold)
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return sw.Result, nil
}

// RunRange executes scenarios [start, end) of an expanded sequence with up
// to parallelism scenarios in flight and returns their records in index
// order — the shard-execution primitive fleetd workers run. Each call builds
// fresh arenas, so a long-lived worker holds no scenario state between
// shards. Results are independent of parallelism (each scenario is
// self-seeded and records come back in index order).
func RunRange(scens []hub.Scenario, start, end, parallelism int) ([]DoneRecord, error) {
	if start < 0 || end > len(scens) || start > end {
		return nil, fmt.Errorf("fleet: range [%d, %d) outside 0..%d", start, end, len(scens))
	}
	if parallelism < 1 {
		parallelism = 1
	}
	records := make([]DoneRecord, 0, end-start)
	err := runPool(scens, start, end, parallelism, nil, func(d DoneRecord) error {
		records = append(records, d)
		return nil
	})
	return records, err
}

// runPool is the one scenario worker pool: it runs scenarios [start, end)
// on workers goroutines, each with its own arena, and hands every record to
// emit in strict index order through a reorder buffer that holds early
// finishers. The first emit error stops dispatch, drains the workers and is
// returned. The pool owns the per-run gauge updates; nil gauges cost nothing.
func runPool(scens []hub.Scenario, start, end, workers int, g *obs.Gauges, emit func(DoneRecord) error) error {
	if start >= end {
		return nil
	}
	indices := make(chan int)
	// One slot per worker: a worker that finishes while the collector is
	// busy folding parks its record and goes back for the next index.
	records := make(chan DoneRecord, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker: scenarios on this goroutine reuse the
			// same scheduler/meter/device stack run after run. Metrics is
			// extracted before the next run recycles the result's storage.
			arena := hub.NewArena()
			for i := range indices {
				d := DoneRecord{Index: i, Label: scens[i].Label()}
				g.WorkerBusy(+1)
				r, err := safeRun(&arena, scens[i])
				g.WorkerBusy(-1)
				if err != nil {
					d.Err = err.Error()
				} else {
					g.MeterObserved(int64(r.MeterSamples), int64(r.MeterDroppedSamples),
						r.MeterCycles, int64(r.MeterFlushes), int64(r.MeterBytes))
					g.PowerObserved(int64(r.Brownouts), int64(r.BrownoutTime),
						int64(r.BatteryHarvestJ*1e6))
					d.Metrics = Metrics(r, scens[i].Windows)
				}
				records <- d
			}
		}()
	}
	go func() {
	feed:
		for i := start; i < end; i++ {
			select {
			case indices <- i:
			case <-stop:
				break feed
			}
		}
		close(indices)
		wg.Wait()
		close(records)
	}()

	pending := map[int]DoneRecord{}
	next := start
	var err error
	for d := range records {
		if err != nil {
			continue // draining after a failed emit
		}
		pending[d.Index] = d
		for ready, ok := pending[next]; ok; ready, ok = pending[next] {
			delete(pending, next)
			next++
			if err = emit(ready); err != nil {
				close(stop)
				break
			}
		}
	}
	return err
}

// Sweep is the one journaled, index-ordered fold both sweep engines share:
// fleet.Run feeds it from the worker pool, the fleetd coordinator from
// accepted shard submissions. Because both fold through it, their journals
// and aggregates cannot tell the engines apart, and a journal written by
// either resumes under the other.
type Sweep struct {
	// Scens is the expanded scenario sequence; Limit is the fold ceiling
	// (len(Scens), or Options.MaxScenarios when smaller).
	Scens []hub.Scenario
	Limit int
	// Result accumulates the fold; Result.Completed is also the index of
	// the next scenario Fold expects.
	Result *Result

	tags     []string
	jw       *journalWriter
	gauges   *obs.Gauges
	progress io.Writer
}

// OpenSweep expands the spec and prepares its fold: on Options.Resume it
// replays the journal (dropping a partial final record, with a warning) into
// the aggregates, then opens the journal for appending. Options.Journal,
// Resume, MaxScenarios, Progress and Gauges apply; Workers only labels the
// gauges. The rate clock starts after the replay, so resumed scenarios do
// not count as work this process did.
func OpenSweep(spec Spec, opt Options) (*Sweep, error) {
	scens, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		Scens:    scens,
		Limit:    len(scens),
		Result:   &Result{Agg: NewAggregator(), Scenarios: len(scens)},
		tags:     make([]string, len(scens)),
		gauges:   opt.Gauges,
		progress: opt.Progress,
	}
	if opt.MaxScenarios > 0 && opt.MaxScenarios < s.Limit {
		s.Limit = opt.MaxScenarios
	}
	for i, sc := range scens {
		s.tags[i] = Tag(sc)
	}
	head := headerFor(spec, scens)
	if opt.Resume {
		if opt.Journal == "" {
			return nil, fmt.Errorf("fleet: resume requested without a journal path")
		}
		replay, err := readJournal(opt.Journal, head, s.tags)
		if err != nil {
			return nil, err
		}
		if err := replay.dropPartialTail(opt.Journal); err != nil {
			return nil, err
		}
		s.Result.Warnings = append(s.Result.Warnings, replay.Warnings...)
		for _, d := range replay.Done {
			s.apply(d)
		}
		s.Result.Resumed = len(replay.Done)
	}
	if opt.Journal != "" {
		if s.jw, err = newJournalWriter(opt.Journal, head, !opt.Resume); err != nil {
			return nil, err
		}
	}
	s.gauges.StartSweep(len(scens), opt.Workers)
	if s.Done() {
		s.gauges.SetFingerprint(s.Result.Agg.Fingerprint())
		s.report()
	}
	return s, nil
}

// Done reports whether the fold has reached its ceiling.
func (s *Sweep) Done() bool { return s.Result.Completed >= s.Limit }

// Fold applies the next record in index order, journals it, and every
// snapEvery records (and at the end of the sweep) publishes and journals
// the aggregate fingerprint.
func (s *Sweep) Fold(d DoneRecord) error {
	res := s.Result
	if d.Index != res.Completed {
		return fmt.Errorf("fleet: fold got scenario %d, want %d", d.Index, res.Completed)
	}
	s.apply(d)
	if s.jw != nil {
		if err := s.jw.writeDone(d); err != nil {
			return err
		}
	}
	if res.Completed%snapEvery == 0 || res.Completed == len(s.Scens) {
		fp := res.Agg.Fingerprint()
		s.gauges.SetFingerprint(fp)
		if s.jw != nil {
			if err := s.jw.writeSnap(res.Completed, fp); err != nil {
				return err
			}
		}
	}
	s.report()
	return nil
}

// Close flushes and closes the journal. Idempotent.
func (s *Sweep) Close() error {
	if s.jw == nil {
		return nil
	}
	err := s.jw.Close()
	s.jw = nil
	return err
}

// apply folds one record into the aggregates without journaling it.
func (s *Sweep) apply(d DoneRecord) {
	res := s.Result
	if d.Err != "" {
		res.Agg.ApplyError()
		res.Failed = append(res.Failed, ScenarioError{Index: d.Index, Label: d.Label, Err: d.Err})
	} else {
		res.Agg.Apply(s.tags[d.Index], d.Metrics)
	}
	res.Completed++
	s.gauges.ScenarioDone(d.Err != "")
}

// report prints a structured one-line JSON status at ~1/16 completion
// steps (and at the end) so long sweeps stay observable without flooding the
// terminal and CI logs stay machine-parseable.
func (s *Sweep) report() {
	if s.progress == nil {
		return
	}
	res, total := s.Result, len(s.Scens)
	step := total / 16
	if step < 1 {
		step = 1
	}
	if res.Completed%step != 0 && res.Completed != total {
		return
	}
	g := s.gauges.Read()
	fmt.Fprintf(s.progress, `{"done":%d,"total":%d,"errors":%d,"rate_per_sec":%.2f,"eta_sec":%.1f}`+"\n",
		res.Completed, total, res.Agg.Errors, g.RatePerSec, g.ETASeconds)
}
