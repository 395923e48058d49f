package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: iothub
cpu: AMD EPYC 7R13 Processor
BenchmarkFleetSweep/workers=1         	       3	 244882689 ns/op	        64.00 scenarios	116854061 B/op	 1833768 allocs/op
BenchmarkFleetSweep/workers=1#01      	       3	 245013against ns/op
PASS
ok  	iothub	2.412s
pkg: iothub/internal/sim
BenchmarkSchedulerThroughput-4        	    6816	    174992 ns/op	     208 B/op	       7 allocs/op
BenchmarkSchedulerFanOut-4            	    1670	    716811 ns/op
PASS
ok  	iothub/internal/sim	3.001s
`

func TestParse(t *testing.T) {
	// The deliberately corrupt second line above exercises the error path in
	// its own subtest; build a clean copy for the happy path.
	clean := strings.Replace(sampleOutput,
		"BenchmarkFleetSweep/workers=1#01      \t       3\t 245013against ns/op\n", "", 1)
	rec, err := Parse(strings.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if rec.GOOS != "linux" || rec.GOARCH != "amd64" {
		t.Errorf("goos/goarch = %q/%q", rec.GOOS, rec.GOARCH)
	}
	if rec.CPU != "AMD EPYC 7R13 Processor" {
		t.Errorf("cpu = %q", rec.CPU)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}

	sweep := rec.Benchmarks[0]
	if sweep.Name != "BenchmarkFleetSweep/workers=1" || sweep.Pkg != "iothub" {
		t.Errorf("first benchmark = %q pkg %q", sweep.Name, sweep.Pkg)
	}
	if sweep.Iterations != 3 || sweep.NsPerOp != 244882689 {
		t.Errorf("sweep iterations/ns = %d/%v", sweep.Iterations, sweep.NsPerOp)
	}
	if sweep.BytesPerOp != 116854061 || sweep.AllocsPerOp != 1833768 {
		t.Errorf("sweep B/allocs = %v/%v", sweep.BytesPerOp, sweep.AllocsPerOp)
	}
	if got := sweep.Metrics["scenarios"]; got != 64 {
		t.Errorf("sweep scenarios metric = %v, want 64", got)
	}

	sched := rec.Benchmarks[1]
	if sched.Pkg != "iothub/internal/sim" {
		t.Errorf("scheduler pkg = %q", sched.Pkg)
	}
	if sched.AllocsPerOp != 7 || sched.BytesPerOp != 208 {
		t.Errorf("scheduler B/allocs = %v/%v", sched.BytesPerOp, sched.AllocsPerOp)
	}
	if fan := rec.Benchmarks[2]; fan.Metrics != nil || fan.BytesPerOp != 0 {
		t.Errorf("fan-out without -benchmem should have no memory fields: %+v", fan)
	}
}

func TestWriteDiff(t *testing.T) {
	oldRec := &Record{Benchmarks: []Benchmark{
		{Pkg: "iothub", Name: "BenchmarkSweep", NsPerOp: 200, AllocsPerOp: 10},
		{Pkg: "iothub", Name: "BenchmarkGone", NsPerOp: 50},
	}}
	newRec := &Record{Benchmarks: []Benchmark{
		{Pkg: "iothub", Name: "BenchmarkSweep", NsPerOp: 150, AllocsPerOp: 10},
		{Pkg: "iothub", Name: "BenchmarkNew", NsPerOp: 75},
	}}
	var b strings.Builder
	if err := WriteDiff(&b, oldRec, newRec); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"-25.0%", "+0.0%", "BenchmarkGone", "only in old record",
		"BenchmarkNew", "only in new record"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDiffDisjoint(t *testing.T) {
	oldRec := &Record{Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 1}}}
	newRec := &Record{Benchmarks: []Benchmark{{Name: "BenchmarkB", NsPerOp: 1}}}
	if err := WriteDiff(io.Discard, oldRec, newRec); err == nil {
		t.Fatal("WriteDiff accepted records with no benchmarks in common")
	}
}

func TestRunDiffDegradesGracefully(t *testing.T) {
	// A fresh checkout has zero or one trajectory points; -diff must report
	// that and succeed so `make bench-diff` works from the first commit.
	for _, paths := range [][]string{nil, {"BENCH_only.json"}} {
		var b strings.Builder
		if err := runDiff(&b, paths); err != nil {
			t.Fatalf("runDiff(%v): %v", paths, err)
		}
		want := fmt.Sprintf("benchjson: need >=2 trajectory files, have %d\n", len(paths))
		if b.String() != want {
			t.Errorf("runDiff(%v) output = %q, want %q", paths, b.String(), want)
		}
	}
	// With two paths it proceeds to the real diff — a missing file is an error.
	if err := runDiff(io.Discard, []string{"no-such-a.json", "no-such-b.json"}); err == nil {
		t.Fatal("runDiff with unreadable files did not error")
	}
}

func TestDeltaGuardsZero(t *testing.T) {
	if got := delta(0, 5); got != "n/a" {
		t.Errorf("delta(0, 5) = %q, want n/a", got)
	}
	if got := delta(100, 110); got != "+10.0%" {
		t.Errorf("delta(100, 110) = %q", got)
	}
}

func TestGate(t *testing.T) {
	rec := &Record{Benchmarks: []Benchmark{
		{Pkg: "iothub", Name: "BenchmarkFleetSweep/workers=1", AllocsPerOp: 7552,
			Metrics: map[string]float64{"scenarios": 64}},
		{Pkg: "iothub", Name: "BenchmarkOther", AllocsPerOp: 10},
	}}
	var b strings.Builder
	if err := Gate(&b, rec, "FleetSweep/workers=1", Budget{AllocsPerScenario: 500}); err != nil {
		t.Fatalf("within-budget gate failed: %v", err)
	}
	if !strings.Contains(b.String(), "gate ok") || !strings.Contains(b.String(), "118 allocs/scenario") {
		t.Errorf("gate output = %q", b.String())
	}
	if err := Gate(io.Discard, rec, "FleetSweep/workers=1", Budget{AllocsPerScenario: 100}); err == nil {
		t.Fatal("over-budget gate passed")
	} else if !strings.Contains(err.Error(), "exceeds the pinned budget") {
		t.Errorf("over-budget error = %v", err)
	}
	if err := Gate(io.Discard, rec, "NoSuchBenchmark", Budget{AllocsPerScenario: 500}); err == nil {
		t.Fatal("gate with no matching benchmark passed")
	}
	// A matching benchmark without the scenarios metric must fail loudly, not
	// silently check nothing.
	if err := Gate(io.Discard, rec, "BenchmarkOther", Budget{AllocsPerScenario: 500}); err == nil {
		t.Fatal("gate without a scenarios metric passed")
	}
	bare := &Record{Benchmarks: []Benchmark{
		{Name: "BenchmarkFleetSweep/workers=1", Metrics: map[string]float64{"scenarios": 64}},
	}}
	if err := Gate(io.Discard, bare, "FleetSweep", Budget{AllocsPerScenario: 500}); err == nil {
		t.Fatal("gate without -benchmem allocation data passed")
	}
}

func TestGateBytesPerOp(t *testing.T) {
	rec := &Record{Benchmarks: []Benchmark{
		{Pkg: "iothub", Name: "BenchmarkFig11MultiApp-2", BytesPerOp: 62_231_304, AllocsPerOp: 445_518},
	}}
	var b strings.Builder
	if err := Gate(&b, rec, "Fig11MultiApp", Budget{MBPerOp: 100}); err != nil {
		t.Fatalf("within-budget gate failed: %v", err)
	}
	if !strings.Contains(b.String(), "gate ok") || !strings.Contains(b.String(), "62.2 MB/op") {
		t.Errorf("gate output = %q", b.String())
	}
	// The queue growth this gate guards against measured 210.7 MB/op.
	grown := &Record{Benchmarks: []Benchmark{
		{Name: "BenchmarkFig11MultiApp-2", BytesPerOp: 210_745_768, AllocsPerOp: 446_261},
	}}
	if err := Gate(io.Discard, grown, "Fig11MultiApp", Budget{MBPerOp: 100}); err == nil {
		t.Fatal("over-budget gate passed")
	} else if !strings.Contains(err.Error(), "210.7 MB/op exceeds the pinned budget") {
		t.Errorf("over-budget error = %v", err)
	}
	// A bytes-only budget needs no scenarios metric, but it does need
	// -benchmem data.
	bare := &Record{Benchmarks: []Benchmark{{Name: "BenchmarkFig11MultiApp-2", NsPerOp: 1}}}
	if err := Gate(io.Discard, bare, "Fig11MultiApp", Budget{MBPerOp: 100}); err == nil {
		t.Fatal("gate without -benchmem byte data passed")
	}
}

func TestWorkerCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		base string
		n    int
		ok   bool
	}{
		{"BenchmarkFleetSweep/workers=1", "BenchmarkFleetSweep", 1, true},
		{"BenchmarkFleetSweep/workers=4-8", "BenchmarkFleetSweep", 4, true},
		{"BenchmarkServiceSweep/workers=16-2", "BenchmarkServiceSweep", 16, true},
		{"BenchmarkFleetSweep", "", 0, false},
		{"BenchmarkX/workers=zero", "", 0, false},
	} {
		base, n, ok := workerCount(tc.name)
		if base != tc.base || n != tc.n || ok != tc.ok {
			t.Errorf("workerCount(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.name, base, n, ok, tc.base, tc.n, tc.ok)
		}
	}
}

func TestWriteScaling(t *testing.T) {
	rec := &Record{Benchmarks: []Benchmark{
		{Pkg: "iothub", Name: "BenchmarkFleetSweep/workers=4-8", NsPerOp: 50},
		{Pkg: "iothub", Name: "BenchmarkFleetSweep/workers=1-8", NsPerOp: 100},
		{Pkg: "iothub", Name: "BenchmarkFleetSweep/workers=2-8", NsPerOp: 60},
		{Pkg: "iothub", Name: "BenchmarkUnrelated", NsPerOp: 5},
	}}
	var b strings.Builder
	WriteScaling(&b, rec)
	out := b.String()
	for _, want := range []string{
		"worker scaling: BenchmarkFleetSweep",
		"1.00x", // workers=1 reference
		"1.67x", // 100/60
		"2.00x", // 100/50
		"0.50",  // efficiency at 4 workers: 2.00/4
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BenchmarkUnrelated") {
		t.Errorf("scaling table includes a non-worker benchmark:\n%s", out)
	}
	// Without a workers=1 reference the table degrades to n/a, not garbage.
	noRef := &Record{Benchmarks: []Benchmark{
		{Name: "BenchmarkX/workers=2", NsPerOp: 10},
	}}
	b.Reset()
	WriteScaling(&b, noRef)
	if !strings.Contains(b.String(), "n/a") {
		t.Errorf("reference-free scaling table = %q", b.String())
	}
}

func TestParseRejectsFailure(t *testing.T) {
	in := "BenchmarkX 1 5 ns/op\n--- FAIL: TestY (0.00s)\nFAIL\nFAIL\tiothub\t0.1s\n"
	if _, err := Parse(strings.NewReader(in)); err == nil {
		t.Fatal("Parse accepted output containing a FAIL marker")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok  \tiothub\t0.1s\n")); err == nil {
		t.Fatal("Parse accepted output with no benchmark lines")
	}
}

func TestParseRejectsMalformedValue(t *testing.T) {
	if _, err := Parse(strings.NewReader(sampleOutput)); err == nil {
		t.Fatal("Parse accepted a benchmark line with a non-numeric value")
	}
}
