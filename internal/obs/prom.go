// Live sweep gauges and their Prometheus text-format export. Unlike the
// Recorder — per-run, single-threaded, virtual-time — Gauges are fleet-wide,
// concurrent, and wall-clock: the worker pool updates them from many
// goroutines while the metrics server scrapes them from another.

package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gauges is the live state of one fleet sweep, exported in Prometheus text
// format. All fields are safe for concurrent update and scrape.
type Gauges struct {
	total   atomic.Int64
	done    atomic.Int64
	errors  atomic.Int64
	busy    atomic.Int64 // workers currently executing a scenario
	workers atomic.Int64 // pool size

	// Coordinator/worker service (fleetd) state. Zero for in-process sweeps.
	shardsTotal   atomic.Int64
	shardsDone    atomic.Int64
	leasesActive  atomic.Int64
	leaseExpiries atomic.Int64 // leases lost to missed heartbeats → shard reassignments
	submitDupes   atomic.Int64 // idempotency hits: retried/duplicated submissions ignored
	degradeLevel  atomic.Int64 // coordinator degradation-ladder level
	workersLive   atomic.Int64 // workers heard from within the liveness window

	// In-situ meter totals across the sweep's runs (zero when no scenario
	// arms a MeterModel) — observer cost on /metrics, per the self-metering
	// mandate: the measurement layer reports what measuring costs.
	meterSamples atomic.Int64
	meterDropped atomic.Int64
	meterCycles  atomic.Int64
	meterFlushes atomic.Int64
	meterBytes   atomic.Int64

	// Battery ledger totals across the sweep's runs (zero when no scenario
	// arms a power.Supply): brownout count, gated virtual time, and harvest
	// energy credited.
	battBrownouts atomic.Int64
	battDownNs    atomic.Int64
	battHarvestUJ atomic.Int64

	mu          sync.Mutex
	start       time.Time
	startDone   int64 // scenarios already done at StartSweep (resumed ones)
	fingerprint string
}

// NewGauges returns zeroed gauges with the rate clock started.
func NewGauges() *Gauges {
	return &Gauges{start: time.Now()}
}

// StartSweep records the sweep's size and pool width and restarts the rate
// clock. Scenarios already counted done (replayed from a journal) stay in
// Done but not in the rate: it measures only work completed after this call.
func (g *Gauges) StartSweep(total, workers int) {
	if g == nil {
		return
	}
	g.total.Store(int64(total))
	g.workers.Store(int64(workers))
	g.mu.Lock()
	g.start = time.Now()
	g.startDone = g.done.Load()
	g.mu.Unlock()
}

// ScenarioDone accounts one completed scenario (failed = errored run).
func (g *Gauges) ScenarioDone(failed bool) {
	if g == nil {
		return
	}
	g.done.Add(1)
	if failed {
		g.errors.Add(1)
	}
}

// WorkerBusy moves a worker in (+1) or out (-1) of the executing state —
// the pool-occupancy gauge.
func (g *Gauges) WorkerBusy(delta int) {
	if g == nil {
		return
	}
	g.busy.Add(int64(delta))
}

// SetFingerprint publishes the aggregate fingerprint as of the latest
// collector checkpoint.
func (g *Gauges) SetFingerprint(fp string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.fingerprint = fp
	g.mu.Unlock()
}

// ShardsCreated accounts n new shards in the coordinator's plan (splits on
// degradation add more).
func (g *Gauges) ShardsCreated(n int) {
	if g == nil {
		return
	}
	g.shardsTotal.Add(int64(n))
}

// ShardDone accounts one shard whose results were accepted.
func (g *Gauges) ShardDone() {
	if g == nil {
		return
	}
	g.shardsDone.Add(1)
}

// LeaseActive moves a shard lease in (+1) or out (-1) of the outstanding
// state.
func (g *Gauges) LeaseActive(delta int) {
	if g == nil {
		return
	}
	g.leasesActive.Add(int64(delta))
}

// LeaseExpired accounts one lease deadline miss (= one shard reassignment).
func (g *Gauges) LeaseExpired() {
	if g == nil {
		return
	}
	g.leaseExpiries.Add(1)
}

// SubmitDuplicate accounts one submission ignored by the idempotency check
// (a retried or chaos-duplicated RPC for a shard already folded or retired).
func (g *Gauges) SubmitDuplicate() {
	if g == nil {
		return
	}
	g.submitDupes.Add(1)
}

// SetDegradeLevel publishes the coordinator's degradation-ladder level.
func (g *Gauges) SetDegradeLevel(level int) {
	if g == nil {
		return
	}
	g.degradeLevel.Store(int64(level))
}

// SetWorkersLive publishes how many workers are inside the liveness window.
func (g *Gauges) SetWorkersLive(n int) {
	if g == nil {
		return
	}
	g.workersLive.Store(int64(n))
}

// MeterObserved folds one completed run's in-situ meter accounting into the
// sweep totals (all-zero calls from unobserved runs are free no-ops).
func (g *Gauges) MeterObserved(samples, dropped, cycles, flushes, bytes int64) {
	if g == nil || samples|dropped|cycles|flushes|bytes == 0 {
		return
	}
	g.meterSamples.Add(samples)
	g.meterDropped.Add(dropped)
	g.meterCycles.Add(cycles)
	g.meterFlushes.Add(flushes)
	g.meterBytes.Add(bytes)
}

// PowerObserved folds one completed run's battery ledger accounting into the
// sweep totals (all-zero calls from mains-powered runs are free no-ops).
func (g *Gauges) PowerObserved(brownouts, downNs, harvestMicroJ int64) {
	if g == nil || brownouts|downNs|harvestMicroJ == 0 {
		return
	}
	g.battBrownouts.Add(brownouts)
	g.battDownNs.Add(downNs)
	g.battHarvestUJ.Add(harvestMicroJ)
}

// Snapshot is one consistent read of the gauges.
type Snapshot struct {
	Total, Done, Errors int64
	WorkersBusy         int64
	Workers             int64
	// RatePerSec is scenarios completed since StartSweep per wall-clock
	// second (resumed scenarios excluded); ETASeconds extrapolates the
	// remainder (0 when done or when no rate is established yet).
	RatePerSec  float64
	ETASeconds  float64
	Fingerprint string
	// Coordinator/worker service state (zero for in-process sweeps).
	ShardsTotal, ShardsDone   int64
	LeasesActive              int64
	LeaseExpiries             int64
	SubmitDuplicates          int64
	DegradeLevel, WorkersLive int64
	// In-situ meter totals (zero when no scenario armed a MeterModel).
	MeterSamples, MeterDropped            int64
	MeterCycles, MeterFlushes, MeterBytes int64
	// Battery ledger totals (zero when no scenario armed a power.Supply).
	BatteryBrownouts, BatteryDownNs, BatteryHarvestUJ int64
}

// Read takes a snapshot.
func (g *Gauges) Read() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	g.mu.Lock()
	start, startDone, fp := g.start, g.startDone, g.fingerprint
	g.mu.Unlock()
	s := Snapshot{
		Total:            g.total.Load(),
		Done:             g.done.Load(),
		Errors:           g.errors.Load(),
		WorkersBusy:      g.busy.Load(),
		Workers:          g.workers.Load(),
		Fingerprint:      fp,
		ShardsTotal:      g.shardsTotal.Load(),
		ShardsDone:       g.shardsDone.Load(),
		LeasesActive:     g.leasesActive.Load(),
		LeaseExpiries:    g.leaseExpiries.Load(),
		SubmitDuplicates: g.submitDupes.Load(),
		DegradeLevel:     g.degradeLevel.Load(),
		WorkersLive:      g.workersLive.Load(),
		MeterSamples:     g.meterSamples.Load(),
		MeterDropped:     g.meterDropped.Load(),
		MeterCycles:      g.meterCycles.Load(),
		MeterFlushes:     g.meterFlushes.Load(),
		MeterBytes:       g.meterBytes.Load(),
		BatteryBrownouts: g.battBrownouts.Load(),
		BatteryDownNs:    g.battDownNs.Load(),
		BatteryHarvestUJ: g.battHarvestUJ.Load(),
	}
	elapsed := time.Since(start).Seconds()
	if live := s.Done - startDone; elapsed > 0 && live > 0 {
		s.RatePerSec = float64(live) / elapsed
		if left := s.Total - s.Done; left > 0 && s.RatePerSec > 0 {
			s.ETASeconds = float64(left) / s.RatePerSec
		}
	}
	return s
}

// promGauge writes one fully annotated Prometheus series.
func promGauge(w io.Writer, name, help string, value float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, value)
	return err
}

// WritePrometheus renders the gauges in Prometheus exposition text format
// (version 0.0.4), the payload behind iotfleet's -metrics-addr endpoint.
func (g *Gauges) WritePrometheus(w io.Writer) error {
	s := g.Read()
	series := []struct {
		name, help string
		value      float64
	}{
		{"iothub_fleet_scenarios_total", "Scenarios in the expanded sweep.", float64(s.Total)},
		{"iothub_fleet_scenarios_done", "Scenarios completed (resumed ones included).", float64(s.Done)},
		{"iothub_fleet_scenarios_errors", "Scenarios whose run errored.", float64(s.Errors)},
		{"iothub_fleet_scenarios_per_second", "Scenarios completed per second since the sweep started (resumed ones excluded).", s.RatePerSec},
		{"iothub_fleet_workers", "Worker pool size.", float64(s.Workers)},
		{"iothub_fleet_workers_busy", "Workers currently executing a scenario.", float64(s.WorkersBusy)},
		{"iothub_fleetd_shards_total", "Shards in the coordinator's plan (splits included).", float64(s.ShardsTotal)},
		{"iothub_fleetd_shards_done", "Shards whose results were accepted and folded.", float64(s.ShardsDone)},
		{"iothub_fleetd_leases_active", "Shard leases currently outstanding.", float64(s.LeasesActive)},
		{"iothub_fleetd_lease_expiries_total", "Lease deadline misses (= shard reassignments).", float64(s.LeaseExpiries)},
		{"iothub_fleetd_submit_duplicates_total", "Submissions ignored by the idempotency check.", float64(s.SubmitDuplicates)},
		{"iothub_fleetd_degrade_level", "Coordinator degradation-ladder level.", float64(s.DegradeLevel)},
		{"iothub_fleetd_workers_live", "Workers heard from within the liveness window.", float64(s.WorkersLive)},
		{"iothub_meter_samples_total", "In-situ meter samples taken across the sweep's runs.", float64(s.MeterSamples)},
		{"iothub_meter_dropped_samples_total", "In-situ meter samples lost to RAM pressure or MCU reboots.", float64(s.MeterDropped)},
		{"iothub_meter_cpu_cycles_total", "MCU cycles the in-situ meters consumed.", float64(s.MeterCycles)},
		{"iothub_meter_flushes_total", "In-situ meter buffer flushes.", float64(s.MeterFlushes)},
		{"iothub_meter_bytes_total", "Record bytes the in-situ meters persisted.", float64(s.MeterBytes)},
		{"iothub_battery_brownouts_total", "SoC-zero power gates across the sweep's runs.", float64(s.BatteryBrownouts)},
		{"iothub_battery_brownout_ns_total", "Virtual nanoseconds spent power-gated.", float64(s.BatteryDownNs)},
		{"iothub_battery_harvested_uj_total", "Harvest energy credited to batteries, in microjoules.", float64(s.BatteryHarvestUJ)},
	}
	for _, sr := range series {
		if err := promGauge(w, sr.name, sr.help, sr.value); err != nil {
			return err
		}
	}
	fp := s.Fingerprint
	if fp == "" {
		fp = "none"
	}
	_, err := fmt.Fprintf(w,
		"# HELP iothub_fleet_aggregate_fingerprint_info Aggregate-state fingerprint as of the latest checkpoint.\n"+
			"# TYPE iothub_fleet_aggregate_fingerprint_info gauge\n"+
			"iothub_fleet_aggregate_fingerprint_info{fingerprint=%q} 1\n", fp)
	return err
}

// PrometheusText renders WritePrometheus into a string (scrape handler and
// tests).
func (g *Gauges) PrometheusText() string {
	var b strings.Builder
	_ = g.WritePrometheus(&b)
	return b.String()
}
