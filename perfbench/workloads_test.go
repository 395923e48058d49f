package main

import (
	"testing"

	"iothub/internal/apps"
	"iothub/internal/fleet"
)

// TestTracedServicePassMatchesInProcess drives the service pass with the
// timing transport and tracer armed on two workers at once, so the race
// detector sees the shared span and RPC state, and checks the merged
// aggregates against the in-process sweep.
func TestTracedServicePassMatchesInProcess(t *testing.T) {
	// 80 scenarios: two shards at the coordinator's default size of 64.
	qos := make([]float64, 20)
	for i := range qos {
		qos[i] = 0.5 + float64(i)/10
	}
	spec := fleet.Spec{Seed: 3, Grid: &fleet.Grid{
		Apps:           [][]apps.ID{{apps.M2X}, {apps.Blynk}},
		Schemes:        []string{"baseline", "batching"},
		Windows:        []int{1},
		QoS:            qos,
		SkipAppCompute: true,
	}}
	ref, err := fleet.Run(spec, fleet.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, stats := newTracer(), newRPCStats()
	root := tr.begin("fleetd", "service pass", 0)
	sp, err := servicePass(spec, 2, tr, root, stats)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(sp.res.Agg.JSON()), string(ref.Agg.JSON()); got != want {
		t.Errorf("service aggregates differ from in-process:\n%s\n%s", got, want)
	}
	if sp.elapsed <= 0 {
		t.Errorf("elapsed = %v", sp.elapsed)
	}
	if len(stats.rpcMs["/lease"]) == 0 || len(stats.rpcMs["/submit"]) == 0 || len(stats.shards) == 0 {
		t.Errorf("timing transport saw leases %d, submits %d, shards %d",
			len(stats.rpcMs["/lease"]), len(stats.rpcMs["/submit"]), len(stats.shards))
	}
	if len(stats.shards) != 2 || len(stats.shards) != len(stats.rpcMs["/submit"]) {
		t.Errorf("%d shards timed for %d submits", len(stats.shards), len(stats.rpcMs["/submit"]))
	}
	for _, s := range tr.snapshot() {
		if s.End < s.Start {
			t.Errorf("span %s/%s left open", s.Layer, s.Name)
		}
	}
}
