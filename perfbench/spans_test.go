package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "workload", Start: 0, End: 100},
		// Two overlapping children cover [10, 60) of the parent: 50 ns.
		{ID: 2, Parent: 1, Layer: "fleetd.shard", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "fleetd.shard", Start: 30, End: 60},
		// A disjoint child covers [80, 90): 10 ns.
		{ID: 4, Parent: 1, Layer: "fleetd.rpc", Start: 80, End: 90},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Layer: "hub", Start: 20, End: 25},
		// A child outliving its parent is clipped to the parent.
		{ID: 6, Layer: "experiments", Start: 200, End: 210},
		{ID: 7, Parent: 6, Layer: "hub", Start: 205, End: 230},
	}
	got := selfTime(spans)
	want := map[string]time.Duration{
		"workload":     100 - 60,
		"fleetd.shard": (40 - 5) + 30,
		"fleetd.rpc":   10,
		"hub":          5 + 25,
		"experiments":  10 - 5,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self time has %d layers, want %d: %v", len(got), len(want), got)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("workload", "pass", 0)
	child := tr.begin("experiments", "fig11", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Parent != 0 {
		t.Fatalf("spans = %+v, want a root and its child", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("hub", "x", 0)
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span ID %d, want 0", id)
	}
}
