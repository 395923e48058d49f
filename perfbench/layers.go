package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/core"
	"iothub/internal/experiments"
	"iothub/internal/fleet"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/scheme"
	"iothub/internal/sim"
)

// Per-layer metric names are built from these lists; perLayerMetrics is the
// single table BENCHMARK.json's per_layer list must equal.
var (
	rpcPaths     = []string{"lease", "submit", "heartbeat", "spec"}
	layerSchemes = []hub.Scheme{hub.Baseline, hub.Batching, hub.COM, hub.BCOM, hub.BEAM, hub.ECOM}
	spanLayers   = []string{"workload", "experiments", "hub", "fleet", "fleetd", "fleetd.rpc", "fleetd.shard", "sim", "apps", "power", "obs", "faults"}
)

// layerMetric is one metric as BENCHMARK.json declares it, bound aside.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerMetrics lists every metric the traced run emits, in order.
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) { out = append(out, layerMetric{name, unit, better}) }
	add("sim.events_per_op", "count", "lower")
	add("sim.cancelled_per_op", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("sim.kernel_ns_per_event.preload16k", "ns", "lower")
	add("sim.kernel_ns_per_event.chained", "ns", "lower")
	add("hub.run_ms_p50", "ms", "lower")
	add("hub.run_ms_p99", "ms", "lower")
	add("hub.arena_run_ms_p50", "ms", "lower")
	add("hub.allocs_per_run", "count", "lower")
	add("hub.arena_allocs_per_run", "count", "lower")
	for _, s := range layerSchemes {
		add("hub.ns_per_sim_s."+schemeName(s), "ns/sim_s", "lower")
	}
	for _, id := range catalog.AllIDs {
		add("apps.compute_ms_per_window."+string(id), "ms", "lower")
	}
	for _, e := range experiments.All() {
		add("experiments.ms."+e.ID, "ms", "lower")
	}
	add("fleet.overhead_frac", "frac", "lower")
	add("fleet.parallel_eff", "frac", "higher")
	add("fleet.fold_us_per_scenario", "us", "lower")
	for _, p := range rpcPaths {
		add("fleetd.rpc_ms_p50."+p, "ms", "lower")
		add("fleetd.rpc_ms_p99."+p, "ms", "lower")
		add("fleetd.rpc_count."+p, "count", "lower")
	}
	add("fleetd.rpc_bytes_per_scenario", "B", "lower")
	add("fleetd.shard_ms_p50", "ms", "lower")
	add("fleetd.shard_ms_p99", "ms", "lower")
	add("fleetd.worker_busy_frac", "frac", "higher")
	add("fleetd.overhead_frac", "frac", "lower")
	add("fleetd.parallel_eff", "frac", "higher")
	add("fleetd.lease_expiries", "count", "lower")
	add("fleetd.reassignments", "count", "lower")
	add("fleetd.duplicates", "count", "lower")
	add("power.ledger_events_per_sim_s", "1/sim_s", "lower")
	add("power.ledger_host_frac", "frac", "lower")
	add("obs.meter_events_per_sim_s", "1/sim_s", "lower")
	add("obs.meter_host_frac", "frac", "lower")
	add("faults.host_frac", "frac", "lower")
	add("go.gc_cpu_frac", "frac", "lower")
	add("go.gc_per_pass", "count", "lower")
	add("trace.overhead_frac", "frac", "lower")
	for _, l := range spanLayers {
		add("span.self_s."+l, "s", "lower")
	}
	return out
}

func schemeName(s hub.Scheme) string { return strings.ToLower(s.String()) }

// tracedRun is the separate per-layer run. It replays the workload's
// scenarios one by one with a counters-only obs recorder armed, times the
// calls into each layer's public functions from this package, records a
// span around every pass, artifact, scenario replay, RPC and shard, and
// reports the traced-vs-untraced pass time as the tracing overhead.
func tracedRun(w workload, seed int64, seconds float64, exp *expectations) (*report, *tracer, error) {
	tr := newTracer()
	rep := &report{}
	j, err := w.prepare(seed, exp)
	if err != nil {
		return nil, nil, err
	}
	spec := w.spec(seed)
	scens, err := spec.Expand()
	if err != nil {
		return nil, nil, err
	}
	rep.linef("check: %s", j.check)

	// Tracing overhead and GC: untraced and traced passes alternate, so
	// drift in the machine's load hits both sides alike.
	gc0 := readGC()
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(seconds / 4 * float64(time.Second)))
	for len(traced) < 3 || time.Now().Before(deadline) {
		f1, d1, err := j.pass(nil, 0)
		if err != nil {
			return nil, nil, err
		}
		root := tr.begin("workload", "pass", 0)
		f2, d2, err := j.pass(tr, root)
		tr.end(root)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, d1.Seconds())
		traced = append(traced, d2.Seconds())
		rep.attempted += 2 * j.ops
		rep.failed += f1 + f2
	}
	passes := float64(len(plain) + len(traced))
	gc := readGC().minus(gc0)

	// experiments: per-artifact time, from this workload's traced passes or
	// from one traced paper-figures pass.
	paper := j
	if j.last == nil {
		if paper, err = preparePaper(exp); err != nil {
			return nil, nil, err
		}
		root := tr.begin("workload", "paper pass", 0)
		f, _, err := paper.pass(tr, root)
		tr.end(root)
		if err != nil {
			return nil, nil, err
		}
		rep.attempted += paper.ops
		rep.failed += f
	}
	rep.lines = append(rep.lines, accuracyLine(paper.last))

	if err := replayLayers(rep, tr, scens); err != nil {
		return nil, nil, err
	}
	if err := fleetLayers(rep, tr, spec, scens); err != nil {
		return nil, nil, err
	}
	if err := armedLayers(rep, tr, scens); err != nil {
		return nil, nil, err
	}
	if err := fixedLayers(rep, tr); err != nil {
		return nil, nil, err
	}

	artifactMs := map[string][]float64{}
	for _, s := range tr.snapshot() {
		if s.Layer == "experiments" {
			artifactMs[s.Name] = append(artifactMs[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	for _, e := range experiments.All() {
		rep.add("experiments.ms."+e.ID, median(artifactMs[e.ID]), "ms",
			fmt.Sprintf("median of %d traced passes", len(artifactMs[e.ID])))
	}
	rep.add("go.gc_cpu_frac", gc.gcCPU/gc.totalCPU, "frac", "over the overhead passes")
	rep.add("go.gc_per_pass", gc.cycles/passes, "count", "")
	rep.add("trace.overhead_frac", median(traced)/median(plain)-1, "frac",
		fmt.Sprintf("median traced %.4g s vs untraced %.4g s over %d pairs", median(traced), median(plain), len(plain)))
	self := selfTime(tr.snapshot())
	for _, l := range spanLayers {
		rep.add("span.self_s."+l, self[l].Seconds(), "s", "")
	}
	return rep, tr, conform(rep, perLayerMetrics())
}

// conform sorts the report into the table's order and checks that it holds
// exactly the table's metrics, each a finite number in the table's unit.
func conform(rep *report, want []layerMetric) error {
	byName := map[string]metric{}
	for _, m := range rep.metrics {
		byName[m.Name] = m
	}
	if len(byName) != len(want) || len(rep.metrics) != len(want) {
		return fmt.Errorf("run emitted %d metrics, table has %d", len(rep.metrics), len(want))
	}
	out := make([]metric, 0, len(want))
	for _, lm := range want {
		m, ok := byName[lm.Name]
		if !ok {
			return fmt.Errorf("run did not emit %s", lm.Name)
		}
		if m.Unit != lm.Unit {
			return fmt.Errorf("%s: unit %s, table says %s", m.Name, m.Unit, lm.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: not a number (%v)", m.Name, m.Value)
		}
		out = append(out, m)
	}
	rep.metrics = out
	return nil
}

// gcSample is a runtime/metrics reading.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (a gcSample) minus(b gcSample) gcSample {
	return gcSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.cycles - b.cycles}
}

// runArmed materializes and runs one scenario as fleet.RunScenarioIn does,
// with rec (which may be nil) armed on the hub's params. A nil arena runs
// it on a throwaway one, as hub.Run and fleet.RunScenario do.
func runArmed(a *hub.Arena, s hub.Scenario, rec *obs.Recorder) (*hub.RunResult, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	def, err := scheme.Lookup(s.Scheme)
	if err != nil {
		return nil, err
	}
	if def.RequiresAssign() && cfg.Assign == nil {
		plan, err := core.PlanBCOM(cfg.Apps, hub.DefaultParams())
		if err != nil {
			return nil, err
		}
		cfg.Assign = plan.Assign
	}
	params := hub.DefaultParams()
	params.Obs = rec
	cfg.Params = &params
	if a == nil {
		return hub.Run(cfg)
	}
	return a.Run(cfg)
}

// replayLayers replays every scenario twice, on a throwaway arena and on
// one long-lived arena, with counters armed: the sim and hub metrics, and
// the fold cost. The two paths must agree on every metric.
func replayLayers(rep *report, tr *tracer, scens []hub.Scenario) error {
	root := tr.begin("workload", "replay", 0)
	defer tr.end(root)
	arena := hub.NewArena()
	agg := fleet.NewAggregator()
	var fresh, reused, foldUs []float64
	var freshAllocs, arenaAllocs, events, cancelled uint64
	var arenaNs int64
	var ms0, ms1 runtime.MemStats
	for _, s := range scens {
		label := s.Label()
		var got [2]map[string]float64
		for k, a := range []*hub.Arena{nil, arena} {
			rec := obs.NewRecorder()
			name := "throwaway " + label
			if a != nil {
				name = "arena " + label
			}
			runtime.ReadMemStats(&ms0)
			id := tr.begin("hub", name, root)
			t0 := time.Now()
			res, err := runArmed(a, s, rec)
			d := time.Since(t0)
			tr.end(id)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return fmt.Errorf("replay %s: %w", label, err)
			}
			allocs := ms1.Mallocs - ms0.Mallocs
			if a == nil {
				fresh = append(fresh, ms(d))
				freshAllocs += allocs
				got[k] = fleet.Metrics(res, s.Windows)
				continue
			}
			reused = append(reused, ms(d))
			arenaAllocs += allocs
			arenaNs += d.Nanoseconds()
			events += rec.Get(obs.SimEventsScheduled)
			cancelled += rec.Get(obs.SimEventsCancelled)
			id = tr.begin("fleet", "fold", root)
			t0 = time.Now()
			got[k] = fleet.Metrics(res, s.Windows)
			agg.Apply(fleet.Tag(s), got[k])
			foldUs = append(foldUs, float64(time.Since(t0))/float64(time.Microsecond))
			tr.end(id)
		}
		rep.attempted++
		if diff := diffValues(got[0], got[1]); diff != "" {
			rep.failed++
			warnf("replay %s: arena run differs from throwaway run: %s", label, diff)
		}
	}
	n := float64(len(scens))
	rep.add("sim.events_per_op", float64(events)/n, "count", fmt.Sprintf("op = one replayed scenario, %d scenarios", len(scens)))
	rep.add("sim.cancelled_per_op", float64(cancelled)/n, "count", "")
	rep.add("sim.ns_per_event", float64(arenaNs)/float64(events), "ns", "arena replay host time / events")
	p99, pct := tail(fresh, 99)
	rep.add("hub.run_ms_p50", median(fresh), "ms", fmt.Sprintf("throwaway arena, n=%d", len(fresh)))
	rep.add("hub.run_ms_p99", p99, "ms", fmt.Sprintf("p%g: highest percentile with >=10 samples beyond, n=%d", pct, len(fresh)))
	rep.add("hub.arena_run_ms_p50", median(reused), "ms", fmt.Sprintf("one long-lived arena, n=%d", len(reused)))
	rep.add("hub.allocs_per_run", float64(freshAllocs)/n, "count", "")
	rep.add("hub.arena_allocs_per_run", float64(arenaAllocs)/n, "count", "")
	rep.add("fleet.fold_us_per_scenario", mean(foldUs), "us", "fleet.Metrics + Aggregator.Apply")
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// timeMedian calls f, which times itself; when one call is short it
// repeats f five times and reports the median, so sub-second figures are
// not one noisy sample.
func timeMedian(f func() (time.Duration, error)) (time.Duration, error) {
	var ds []float64
	for len(ds) == 0 || (ds[0] < 0.5 && len(ds) < 5) {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return time.Duration(median(ds) * float64(time.Second)), nil
}

// fleetLayers measures the sweep engine and the service tier on the
// workload's own spec: fleet.Run at 1 and nproc workers against the bare
// sum of its scenario runs, then the same spec through fleetd.
func fleetLayers(rep *report, tr *tracer, spec fleet.Spec, scens []hub.Scenario) error {
	runFleet := func(workers int, out **fleet.Result) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			id := tr.begin("fleet", fmt.Sprintf("fleet.Run workers=%d", workers), 0)
			defer tr.end(id)
			t0 := time.Now()
			res, err := fleet.Run(spec, fleet.Options{Workers: workers})
			*out = res
			return time.Since(t0), err
		}
	}
	var res1, resN *fleet.Result
	t1, err := timeMedian(runFleet(1, &res1))
	if err != nil {
		return err
	}
	tN, err := timeMedian(runFleet(nproc, &resN))
	if err != nil {
		return err
	}
	rep.attempted++
	if fp1, fpN := res1.Agg.Fingerprint(), resN.Agg.Fingerprint(); fp1 != fpN {
		rep.failed++
		warnf("fleet: fingerprint %s at 1 worker, %s at %d workers", fp1, fpN, nproc)
	}
	arena := hub.NewArena()
	tSum, err := timeMedian(func() (time.Duration, error) {
		id := tr.begin("fleet", "sum RunScenarioIn", 0)
		defer tr.end(id)
		t0 := time.Now()
		for _, s := range scens {
			if _, err := fleet.RunScenarioIn(arena, s); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	rep.add("fleet.overhead_frac", t1.Seconds()/tSum.Seconds()-1, "frac",
		fmt.Sprintf("fleet.Run workers=1 %.4g s vs sum of RunScenarioIn %.4g s", t1.Seconds(), tSum.Seconds()))
	cores := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	eff, note := 0.0, fmt.Sprintf("not measured: %d cores < %d workers", cores, nproc)
	if cores >= nproc {
		eff = t1.Seconds() / (float64(nproc) * tN.Seconds())
		note = fmt.Sprintf("T1 %.4g s / (%d x T%d %.4g s)", t1.Seconds(), nproc, nproc, tN.Seconds())
	}
	rep.add("fleet.parallel_eff", eff, "frac", note)

	// fleetd: the same spec over loopback TCP, timed per RPC and per shard
	// at nproc workers; the merged aggregates must equal the in-process
	// run's byte for byte.
	refJSON := string(resN.Agg.JSON())
	stats := newRPCStats()
	var wallMs []float64
	var expiries, reassigns, dupes int64
	svc := func(workers int, stats *rpcStats) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			root := tr.begin("fleetd", fmt.Sprintf("service pass workers=%d", workers), 0)
			sp, err := servicePass(spec, workers, tr, root, stats)
			tr.end(root)
			if err != nil {
				return 0, err
			}
			rep.attempted++
			if string(sp.res.Agg.JSON()) != refJSON {
				rep.failed++
				warnf("fleetd: merged aggregate JSON differs from in-process fleet.Run at %d workers", workers)
			}
			if stats != nil {
				wallMs = append(wallMs, ms(sp.elapsed))
				expiries += sp.gauges.LeaseExpiries
				dupes += sp.gauges.SubmitDuplicates
				reassigns += int64(sp.status.Reassignments)
			}
			return sp.elapsed, nil
		}
	}
	sN, err := timeMedian(svc(nproc, stats))
	if err != nil {
		return err
	}
	s1, err := timeMedian(svc(1, nil))
	if err != nil {
		return err
	}
	svcPasses := float64(len(wallMs))
	for _, p := range rpcPaths {
		lat := stats.rpcMs["/"+p]
		p50, p99, pct := 0.0, 0.0, 0.0
		if len(lat) > 0 {
			p50 = median(lat)
			p99, pct = tail(lat, 99)
		}
		rep.add("fleetd.rpc_ms_p50."+p, p50, "ms", fmt.Sprintf("n=%d", len(lat)))
		rep.add("fleetd.rpc_ms_p99."+p, p99, "ms", fmt.Sprintf("p%g, n=%d (0 when no calls)", pct, len(lat)))
		rep.add("fleetd.rpc_count."+p, float64(len(lat))/svcPasses, "count", "per service pass")
	}
	rep.add("fleetd.rpc_bytes_per_scenario", float64(stats.bytes)/(svcPasses*float64(len(scens))), "B", "request + reply bodies")
	sp99, spct := tail(stats.shards, 99)
	rep.add("fleetd.shard_ms_p50", median(stats.shards), "ms", fmt.Sprintf("lease reply to next submit, n=%d", len(stats.shards)))
	rep.add("fleetd.shard_ms_p99", sp99, "ms", fmt.Sprintf("p%g, n=%d", spct, len(stats.shards)))
	rep.add("fleetd.worker_busy_frac", sum(stats.shards)/(float64(nproc)*sum(wallMs)), "frac", "shard time / (workers x pass wall)")
	rep.add("fleetd.overhead_frac", sN.Seconds()/tN.Seconds()-1, "frac",
		fmt.Sprintf("service %.4g s vs in-process %.4g s at %d workers", sN.Seconds(), tN.Seconds(), nproc))
	eff, note = 0.0, fmt.Sprintf("not measured: %d cores < %d workers", cores, nproc)
	if cores >= nproc {
		eff = s1.Seconds() / (float64(nproc) * sN.Seconds())
		note = fmt.Sprintf("T1 %.4g s / (%d x T%d %.4g s)", s1.Seconds(), nproc, nproc, sN.Seconds())
	}
	rep.add("fleetd.parallel_eff", eff, "frac", note)
	rep.add("fleetd.lease_expiries", float64(expiries), "count", fmt.Sprintf("over %d passes", len(wallMs)))
	rep.add("fleetd.reassignments", float64(reassigns), "count", "")
	rep.add("fleetd.duplicates", float64(dupes), "count", "")
	return nil
}

// probeSample picks up to n scenarios spread evenly over the sequence.
func probeSample(scens []hub.Scenario, n int) []hub.Scenario {
	if len(scens) <= n {
		return scens
	}
	out := make([]hub.Scenario, n)
	for i := range out {
		out[i] = scens[i*len(scens)/n]
	}
	return out
}

// armedLayers prices the battery ledger, the in-situ meter and the fault
// engine on a sample of the workload's scenarios: each runs stripped of all
// three, then with exactly one armed (a 1000 mAh office-harvest battery, an
// in-situ meter at 1 kHz, or the seeded chaos schedule). Events are exact counts; host shares
// are the median of three interleaved rounds.
func armedLayers(rep *report, tr *tracer, scens []hub.Scenario) error {
	// The probe battery is roomy enough never to brown out: a brownout
	// gates the MCU and drops reads, which would net the ledger's own
	// events against the ones it suppresses.
	supply, meter := coinCell(), obs.Insitu(1000)
	supply.Battery.CapacityMAh = 1000
	variants := []struct {
		layer string
		arm   func(*hub.Scenario)
	}{
		{"hub", func(*hub.Scenario) {}},
		{"power", func(s *hub.Scenario) { s.Power = &supply }},
		{"obs", func(s *hub.Scenario) { s.Meter = &meter }},
		{"faults", func(s *hub.Scenario) { s.Faults = chaos(s.Seed) }},
	}
	sample := probeSample(scens, 48)
	arena := hub.NewArena()
	events := make([]uint64, len(variants))
	host := make([][]float64, len(variants))
	simS := 0.0
	const rounds = 3
	for round := range rounds {
		hostNs := make([]int64, len(variants))
		for _, s := range sample {
			s.Power, s.Meter, s.Faults = nil, nil, ""
			for v, vr := range variants {
				armed := s
				vr.arm(&armed)
				rec := obs.NewRecorder()
				id := tr.begin(vr.layer, "probe "+armed.Label(), 0)
				t0 := time.Now()
				res, err := runArmed(arena, armed, rec)
				hostNs[v] += time.Since(t0).Nanoseconds()
				tr.end(id)
				if err != nil {
					return fmt.Errorf("%s probe %s: %w", vr.layer, armed.Label(), err)
				}
				if round == 0 {
					events[v] += rec.Get(obs.SimEventsScheduled)
					if v == 0 {
						simS += res.Duration.Seconds()
					}
				}
			}
		}
		for v := range variants {
			host[v] = append(host[v], float64(hostNs[v]))
		}
	}
	share := func(v int) float64 { return (median(host[v]) - median(host[0])) / median(host[v]) }
	note := fmt.Sprintf("%d scenarios, armed minus stripped", len(sample))
	rep.add("power.ledger_events_per_sim_s", (float64(events[1])-float64(events[0]))/simS, "1/sim_s", note)
	rep.add("power.ledger_host_frac", share(1), "frac", "share of the armed run's host time")
	rep.add("obs.meter_events_per_sim_s", (float64(events[2])-float64(events[0]))/simS, "1/sim_s", note)
	rep.add("obs.meter_host_frac", share(2), "frac", "share of the armed run's host time")
	rep.add("faults.host_frac", share(3), "frac", "chaos replay vs the same clean replay, share of the chaos run")
	return nil
}

// fixedLayers are the workload-independent probes: the bare DES kernel at
// Fig. 11's heap depth, each scheme's host cost per simulated second, and
// each app's compute per window.
func fixedLayers(rep *report, tr *tracer) error {
	pre, chained := kernelNsPerEvent(tr)
	rep.add("sim.kernel_ns_per_event.preload16k", pre, "ns", "16384 reads pre-enqueued, then drained")
	rep.add("sim.kernel_ns_per_event.chained", chained, "ns", "16384 reads on 8 streams, each scheduling its successor")

	arena := hub.NewArena()
	mix := []apps.ID{apps.StepCounter, apps.M2X, apps.Blynk}
	for _, sc := range layerSchemes {
		s := hub.Scenario{Apps: mix, Scheme: sc, Windows: 3, Seed: experiments.Seed, SkipAppCompute: true}
		var per []float64
		for range 7 {
			id := tr.begin("hub", "scheme "+s.Label(), 0)
			t0 := time.Now()
			res, err := runArmed(arena, s, nil)
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("scheme probe %s: %w", s.Label(), err)
			}
			per = append(per, float64(d.Nanoseconds())/res.Duration.Seconds())
		}
		rep.add("hub.ns_per_sim_s."+schemeName(sc), median(per), "ns/sim_s", "A2+A4+A5, 3 windows, skip-compute, median of 7")
	}

	for _, appID := range catalog.AllIDs {
		a, err := catalog.New(appID, experiments.Seed)
		if err != nil {
			return err
		}
		in, err := apps.CollectWindow(a, 0)
		if err != nil {
			return err
		}
		var per []float64
		start := time.Now()
		for len(per) < 3 || (len(per) < 50 && time.Since(start) < 100*time.Millisecond) {
			id := tr.begin("apps", "compute "+string(appID), 0)
			t0 := time.Now()
			_, err := a.Compute(in)
			per = append(per, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("compute %s: %w", appID, err)
			}
		}
		rep.add("apps.compute_ms_per_window."+string(appID), median(per), "ms", fmt.Sprintf("window 0, median of %d", len(per)))
	}
	return nil
}

// kernelNsPerEvent drives sim.Scheduler directly with 16384 periodic reads
// — Fig. 11's peak pending-event count — once all enqueued up front (the
// heap is as deep as the run is long) and once chained, eight streams each
// scheduling its next read (the heap stays eight deep).
func kernelNsPerEvent(tr *tracer) (preload, chained float64) {
	const reads, streams = 16384, 8
	const period = sim.Time(time.Millisecond)
	s := sim.NewScheduler()
	noop := func() {}
	var pre, ch []float64
	for range 15 {
		s.Reset()
		id := tr.begin("sim", "preload16k", 0)
		t0 := time.Now()
		for i := range reads {
			_, _ = s.At(sim.Time(i)*period, noop) // times are never in the past
		}
		_ = s.Run()
		pre = append(pre, float64(time.Since(t0).Nanoseconds())/reads)
		tr.end(id)

		s.Reset()
		id = tr.begin("sim", "chained", 0)
		t0 = time.Now()
		scheduled := streams
		var next func()
		next = func() {
			if scheduled < reads {
				scheduled++
				_, _ = s.At(s.Now()+streams*period, next)
			}
		}
		for i := range streams {
			_, _ = s.At(sim.Time(i)*period, next)
		}
		_ = s.Run()
		ch = append(ch, float64(time.Since(t0).Nanoseconds())/reads)
		tr.end(id)
	}
	return median(pre), median(ch)
}
