package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/experiments"
	"iothub/internal/fleet"
	"iothub/internal/fleetd"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
)

// nproc is the worker count every workload uses: one worker goroutine per
// core the process may run on.
var nproc = runtime.NumCPU()

// workload is one named input set. spec is the scenario set it runs (the
// set the traced run replays one by one); prepare builds a job, including
// its untimed warm-up pass.
type workload struct {
	name string
	why  string
	// seeded is false when the inputs are fixed and the seed is ignored.
	seeded  bool
	spec    func(seed int64) fleet.Spec
	prepare func(seed int64, exp *expectations) (*job, error)
}

// job is a prepared workload: a closed loop runs pass back to back. A pass
// performs ops operations and returns how many of them failed, output
// checks included, and how long the ops took.
type job struct {
	ops int
	// workers is how many worker goroutines a pass drives.
	workers int
	pass    func(tr *tracer, parent int) (failed int, elapsed time.Duration, err error)
	// check names the output check a pass applies.
	check string
	// last is the most recent paper-figures pass (nil for the sweeps).
	last []*experiments.Result
}

var workloads = []workload{
	{
		name: "paper-figures",
		why:  "the 14 paper artifacts with real app compute on throwaway arenas and pre-enqueued reads; bypasses fleet, fleetd, meter and battery",
		spec: func(int64) fleet.Spec { return paperSpec() },
		prepare: func(_ int64, exp *expectations) (*job, error) {
			return preparePaper(exp)
		},
	},
	{
		name:    "sweep-mixed",
		why:     "long skip-compute DES runs through fleet.Run where kernel, devices, chaos, battery ledger and meter do the work; no app compute",
		seeded:  true,
		spec:    sweepSpec,
		prepare: prepareSweep,
	},
	{
		name:    "service-short",
		why:     "~0.4 ms scenarios through the fleetd coordinator over loopback TCP, so RPCs, JSON, per-shard arenas and the fold weigh most",
		seeded:  true,
		spec:    serviceSpec,
		prepare: prepareService,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// chaos is the fault schedule of sweep-mixed and the faults-layer probe:
// seeded link corruption plus one MCU crash.
func chaos(seed int64) string {
	return fmt.Sprintf("seed=%d; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms", seed)
}

// coinCell is the power axis of sweep-mixed and the power-layer probe: the
// abl-harvest supply, 0.5 mAh topped up by the office harvest preset.
func coinCell() power.Supply {
	office, err := power.Preset("office")
	if err != nil {
		panic(err) // a preset the power package itself documents
	}
	return power.Supply{
		Battery: power.Battery{CapacityMAh: 0.5, Volts: 3, DerateFraction: 1},
		Harvest: office,
	}
}

// paperSpec lists the hub runs behind Figures 10-12 — the scenarios that
// dominate a paper-figures pass — at the paper's seed, window count and
// real app compute. BCOM scenarios carry no partition, so they are planned
// exactly as Figure 12 plans them.
func paperSpec() fleet.Spec {
	var scens []hub.Scenario
	add := func(ids []apps.ID, schemes ...hub.Scheme) {
		for _, s := range schemes {
			scens = append(scens, hub.Scenario{Apps: ids, Scheme: s,
				Windows: experiments.Windows, Seed: experiments.Seed})
		}
	}
	for _, id := range catalog.LightIDs {
		add([]apps.ID{id}, hub.Baseline, hub.Batching, hub.COM)
	}
	for _, ids := range experiments.Combos {
		add(ids, hub.Baseline, hub.BEAM, hub.COM)
	}
	add([]apps.ID{apps.SpeechToTxt}, hub.Baseline, hub.Batching)
	add([]apps.ID{apps.SpeechToTxt, apps.DropboxMgr}, hub.Baseline, hub.Batching, hub.BEAM, hub.BCOM)
	add([]apps.ID{apps.SpeechToTxt, apps.DropboxMgr, apps.CoAPServer}, hub.Baseline, hub.Batching, hub.BEAM, hub.BCOM)
	return fleet.Spec{Seed: experiments.Seed, Scenarios: scens}
}

// sweepSpec is the sweep-mixed grid: four multi-app mixes (the heavy
// A11+A2 among them) × five schemes × three QoS multipliers × clean or
// chaos × external or in-situ meter × mains or coin cell, two windows each,
// skip-compute; the seed drives the app signals and the fault draws. COM
// is left out (it rejects A11) and every mix has two or
// more apps (BEAM rejects one), so every scenario is valid and any failure
// is a regression.
func sweepSpec(seed int64) fleet.Spec {
	return fleet.Spec{Seed: seed, Grid: &fleet.Grid{
		Apps: [][]apps.ID{
			{apps.StepCounter, apps.Blynk},
			{apps.M2X, apps.Blynk},
			{apps.StepCounter, apps.M2X, apps.Blynk, apps.Earthquake},
			{apps.SpeechToTxt, apps.StepCounter},
		},
		Schemes:        []string{"baseline", "batching", "bcom", "beam", "ecom"},
		Windows:        []int{2},
		QoS:            []float64{0.5, 1, 2},
		Faults:         []string{"", chaos(seed)},
		Meters:         []obs.MeterModel{obs.External(), obs.Insitu(1000)},
		Power:          []power.Supply{{}, coinCell()},
		SkipAppCompute: true,
	}}
}

// serviceSpec is the service-short grid: one-window single-light-app
// scenarios, M2X/Blynk/ArduinoJSON × baseline/batching/COM × 75 QoS
// multipliers, skip-compute — 675 scenarios of ~0.4 ms. Multiplier i is
// drawn from [0.5+0.02i, 0.52+0.02i) by the seed, so every seed covers
// 0.5-2 evenly and the pass cost hardly depends on the seed.
func serviceSpec(seed int64) fleet.Spec {
	qos := make([]float64, 75)
	for i := range qos {
		u := float64(uint64(fleet.ScenarioSeed(seed, i))>>11) / (1 << 53)
		qos[i] = (50 + 2*(float64(i)+u)) / 100
	}
	return fleet.Spec{Seed: seed, Grid: &fleet.Grid{
		Apps:           [][]apps.ID{{apps.M2X}, {apps.Blynk}, {apps.ArduinoJSON}},
		Schemes:        []string{"baseline", "batching", "com"},
		Windows:        []int{1},
		QoS:            qos,
		SkipAppCompute: true,
	}}
}

// preparePaper loads the committed artifact values and runs the warm-up pass.
func preparePaper(exp *expectations) (*job, error) {
	want := exp.Paper
	if len(want) == 0 {
		return nil, fmt.Errorf("paper-figures: no committed artifact expectations")
	}
	all := experiments.All()
	j := &job{ops: len(all), workers: 1, check: "every artifact's Values equal the committed expectation exactly"}
	j.pass = func(tr *tracer, parent int) (int, time.Duration, error) {
		t0 := time.Now()
		failed := 0
		results := make([]*experiments.Result, 0, len(all))
		for _, e := range all {
			id := tr.begin("experiments", e.ID, parent)
			r, err := e.Run()
			tr.end(id)
			if err != nil {
				failed++
				continue
			}
			if diff := diffValues(want[e.ID], r.Values); diff != "" {
				failed++
				warnf("paper-figures: %s: %s", e.ID, diff)
			}
			results = append(results, r)
		}
		j.last = results
		return failed, time.Since(t0), nil
	}
	if _, _, err := j.pass(nil, 0); err != nil {
		return nil, err
	}
	return j, nil
}

// diffValues describes the first difference between two artifact value
// maps, bit for bit; "" when identical.
func diffValues(want, got map[string]float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d values, want %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("value %q missing", k)
		}
		if math.Float64bits(g) != math.Float64bits(want[k]) {
			return fmt.Sprintf("value %q = %v, want %v", k, g, want[k])
		}
	}
	return ""
}

// prepareSweep expands the grid, fixes the fingerprint every pass must
// reproduce and runs the warm-up pass.
func prepareSweep(seed int64, exp *expectations) (*job, error) {
	spec := sweepSpec(seed)
	scens, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	want, committed := exp.fingerprint("sweep-mixed", seed)
	j := &job{ops: len(scens), workers: nproc}
	j.pass = func(tr *tracer, parent int) (int, time.Duration, error) {
		id := tr.begin("fleet", "fleet.Run", parent)
		t0 := time.Now()
		res, err := fleet.Run(spec, fleet.Options{Workers: nproc})
		elapsed := time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		return checkAgg("sweep-mixed", res, len(scens), &want), elapsed, nil
	}
	if _, _, err := j.pass(nil, 0); err != nil {
		return nil, err
	}
	j.check = checkText(committed, seed)
	return j, nil
}

// prepareService expands the grid, runs the in-process reference sweep
// whose aggregate JSON every service pass must reproduce byte for byte,
// and runs one warm-up service pass.
func prepareService(seed int64, exp *expectations) (*job, error) {
	spec := serviceSpec(seed)
	scens, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	want, committed := exp.fingerprint("service-short", seed)
	ref, err := fleet.Run(spec, fleet.Options{Workers: nproc})
	if err != nil {
		return nil, err
	}
	refFailed := checkAgg("service-short (in-process reference)", ref, len(scens), &want)
	refJSON := string(ref.Agg.JSON())
	j := &job{ops: len(scens), workers: nproc}
	j.pass = func(tr *tracer, parent int) (int, time.Duration, error) {
		var stats *rpcStats // a traced pass times its RPCs and shards
		if tr != nil {
			stats = newRPCStats()
		}
		sp, err := servicePass(spec, nproc, tr, parent, stats)
		if err != nil {
			return 0, 0, err
		}
		failed := checkAgg("service-short", sp.res, len(scens), &want)
		if failed == 0 && string(sp.res.Agg.JSON()) != refJSON {
			warnf("service-short: merged aggregate JSON differs from in-process fleet.Run")
			failed = len(scens)
		}
		return max(failed, refFailed), sp.elapsed, nil
	}
	if _, _, err := j.pass(nil, 0); err != nil {
		return nil, err
	}
	j.check = checkText(committed, seed) + "; merged aggregate JSON == in-process fleet.Run, byte for byte"
	return j, nil
}

func checkText(committed bool, seed int64) string {
	if committed {
		return fmt.Sprintf("Agg.Fingerprint() == committed expectation for seed %d", seed)
	}
	return fmt.Sprintf("no committed expectation for seed %d: every pass must reproduce the warm-up pass's Agg.Fingerprint()", seed)
}

// checkAgg returns the failed-op count of one sweep: scenarios that errored,
// or all of them when the fingerprint is not the expected one. An empty
// *want is filled from this sweep (the self-consistency fallback).
func checkAgg(what string, res *fleet.Result, ops int, want *string) int {
	fp := res.Agg.Fingerprint()
	if *want == "" && res.Agg.Errors == 0 {
		*want = fp
	}
	if res.Completed != ops {
		warnf("%s: %d of %d scenarios completed", what, res.Completed, ops)
		return ops
	}
	if fp != *want {
		warnf("%s: fingerprint %s, want %s", what, fp, *want)
		return ops
	}
	return res.Agg.Errors
}

// svcPass is one completed service sweep. elapsed runs from coordinator
// start to the merged result; the workers' exit, which can lag by one
// lease-retry nap, is joined outside it.
type svcPass struct {
	elapsed time.Duration
	res     *fleet.Result
	status  fleetd.StatusResponse
	gauges  obs.Snapshot
}

// servicePass runs spec through a fleetd coordinator served over loopback
// TCP with workers in-process workers, each holding at most one connection
// at a time. A non-nil stats wraps every worker's transport in the timing
// wrapper (and tr, when armed, records RPC and shard spans under parent).
func servicePass(spec fleet.Spec, workers int, tr *tracer, parent int, stats *rpcStats) (*svcPass, error) {
	t0 := time.Now()
	coord, err := fleetd.New(fleetd.Config{Spec: spec})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	srv, err := fleetd.ServeHTTP("127.0.0.1:0", coord)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		var tp fleetd.Transport = fleetd.HTTPTransport{Addr: srv.Addr()}
		if stats != nil {
			tp = &timedTransport{inner: tp, tr: tr, parent: parent, stats: stats}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := fleetd.NewWorker(fleetd.WorkerConfig{ID: fmt.Sprintf("w%d", i), Transport: tp})
			if err == nil {
				err = w.Run()
			}
			errs[i] = err
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	sweepDone := make(chan struct{})
	var res *fleet.Result
	var sweepErr error
	go func() {
		res, sweepErr = coord.Wait()
		close(sweepDone)
	}()
	var elapsed time.Duration
	select {
	case <-sweepDone:
		elapsed = time.Since(t0)
		<-workersDone
	case <-workersDone:
		// Every worker quit with the sweep unfinished: Close ends Wait.
		coord.Close()
		<-sweepDone
		elapsed = time.Since(t0)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if sweepErr != nil {
		return nil, sweepErr
	}
	return &svcPass{elapsed: elapsed, res: res, status: coord.Status(), gauges: coord.Gauges().Read()}, nil
}
