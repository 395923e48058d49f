// Command benchjson converts `go test -bench` text output into a stable
// JSON document, the record format behind `make bench-json`: each run lands
// in a BENCH_<stamp>.json file, and the sequence of committed files is the
// repo's performance trajectory (compare any two with a JSON diff).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_20260805T120000Z.json
//	go test -bench SchedulerThroughput ./internal/sim | benchjson
//	benchjson -diff BENCH_old.json BENCH_new.json   # % delta table + worker scaling
//	go test -run '^$' -bench 'FleetSweep/workers=1$' -benchmem -benchtime 1x . \
//	    | benchjson -gate FleetSweep/workers=1 -max-allocs-per-scenario 500
//	go test -run '^$' -bench 'Fig11MultiApp$' -benchmem -benchtime 1x . \
//	    | benchjson -gate Fig11MultiApp -max-mb-per-op 100
//
// -diff appends a worker-scaling table (speedup and parallel efficiency per
// <base>/workers=N family) for the newer record. -gate turns the tool into a
// CI regression gate over every matching benchmark, with one or both
// budgets: -max-allocs-per-scenario normalizes allocs/op by the benchmark's
// "scenarios" metric, and -max-mb-per-op caps B/op in megabytes (10^6
// bytes). It exits nonzero when a budget is exceeded.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Record is the top-level document.
type Record struct {
	Stamp string `json:"stamp"`
	// Commit and GoVersion pin the trajectory point to the code that
	// produced it; Commit is empty outside a git checkout.
	Commit     string      `json:"commit,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one `Benchmark...` result line.
type Benchmark struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any extra b.ReportMetric pairs (e.g. "scenarios").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := ""
	gate := ""
	var budget Budget
	args := os.Args[1:]
	for len(args) > 0 {
		switch args[0] {
		case "-o":
			if len(args) < 2 {
				fmt.Fprintln(os.Stderr, "benchjson: -o needs a file path")
				os.Exit(2)
			}
			out, args = args[1], args[2:]
		case "-diff":
			if err := runDiff(os.Stdout, args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			return
		case "-gate":
			if len(args) < 2 {
				fmt.Fprintln(os.Stderr, "benchjson: -gate needs a benchmark name pattern")
				os.Exit(2)
			}
			gate, args = args[1], args[2:]
		case "-max-allocs-per-scenario", "-max-mb-per-op":
			if len(args) < 2 {
				fmt.Fprintf(os.Stderr, "benchjson: %s needs a number\n", args[0])
				os.Exit(2)
			}
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "benchjson: bad %s budget %q\n", args[0], args[1])
				os.Exit(2)
			}
			if args[0] == "-max-mb-per-op" {
				budget.MBPerOp = v
			} else {
				budget.AllocsPerScenario = v
			}
			args = args[2:]
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown argument %q\n", args[0])
			os.Exit(2)
		}
	}
	rec, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if gate != "" {
		if budget == (Budget{}) {
			fmt.Fprintln(os.Stderr, "benchjson: -gate needs -max-allocs-per-scenario or -max-mb-per-op")
			os.Exit(2)
		}
		if err := Gate(os.Stdout, rec, gate, budget); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	rec.Stamp = time.Now().UTC().Format(time.RFC3339)
	rec.Commit = gitCommit()
	rec.GoVersion = runtime.Version()
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(rec.Benchmarks), out)
}

// gitCommit reports the checkout's short commit hash, or "" when git (or a
// repository) is unavailable — the stamp is best-effort metadata.
func gitCommit() string {
	blob, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(blob))
}

// runDiff implements -diff. A trajectory with a single recorded point (or
// none yet) has nothing to compare — that is a fresh checkout, not an error:
// report it and succeed, so `make bench-diff` works from the first commit.
func runDiff(w io.Writer, paths []string) error {
	if len(paths) < 2 {
		fmt.Fprintf(w, "benchjson: need >=2 trajectory files, have %d\n", len(paths))
		return nil
	}
	return diffFiles(w, paths[0], paths[1])
}

// diffFiles loads two trajectory points and prints their delta table.
func diffFiles(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (*Record, error) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec Record
		if err := json.Unmarshal(blob, &rec); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return &rec, nil
	}
	oldRec, err := load(oldPath)
	if err != nil {
		return err
	}
	newRec, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (%s %s)\nnew: %s (%s %s)\n\n",
		oldPath, oldRec.Stamp, oldRec.Commit, newPath, newRec.Stamp, newRec.Commit)
	if err := WriteDiff(w, oldRec, newRec); err != nil {
		return err
	}
	WriteScaling(w, newRec)
	return nil
}

// Budget is a gate's set of ceilings; a zero field is not checked.
type Budget struct {
	AllocsPerScenario float64 // allocs/op divided by the "scenarios" metric
	MBPerOp           float64 // B/op in megabytes (10^6 bytes)
}

// Gate enforces the CI allocation budget: every benchmark whose name
// contains pattern must stay at or under each set ceiling of budget.
// Matching benchmarks without the data a ceiling needs (the scenarios
// metric, or -benchmem output) are an error — a gate that silently checks
// nothing is worse than no gate.
func Gate(w io.Writer, rec *Record, pattern string, budget Budget) error {
	matched := 0
	for _, b := range rec.Benchmarks {
		if !strings.Contains(b.Name, pattern) {
			continue
		}
		matched++
		if budget.AllocsPerScenario > 0 {
			scenarios := b.Metrics["scenarios"]
			if scenarios <= 0 {
				return fmt.Errorf("%s: no scenarios metric to normalize by (ReportMetric missing?)", b.Name)
			}
			if b.AllocsPerOp == 0 {
				return fmt.Errorf("%s: no allocs/op (run the benchmark with -benchmem)", b.Name)
			}
			per := b.AllocsPerOp / scenarios
			if per > budget.AllocsPerScenario {
				return fmt.Errorf("%s: %.0f allocs/scenario exceeds the pinned budget of %.0f", b.Name, per, budget.AllocsPerScenario)
			}
			fmt.Fprintf(w, "benchjson: gate ok: %s at %.0f allocs/scenario (budget %.0f)\n", b.Name, per, budget.AllocsPerScenario)
		}
		if budget.MBPerOp > 0 {
			if b.BytesPerOp == 0 {
				return fmt.Errorf("%s: no B/op (run the benchmark with -benchmem)", b.Name)
			}
			mb := b.BytesPerOp / 1e6
			if mb > budget.MBPerOp {
				return fmt.Errorf("%s: %.1f MB/op exceeds the pinned budget of %.1f", b.Name, mb, budget.MBPerOp)
			}
			fmt.Fprintf(w, "benchjson: gate ok: %s at %.1f MB/op (budget %.1f)\n", b.Name, mb, budget.MBPerOp)
		}
	}
	if matched == 0 {
		return fmt.Errorf("gate pattern %q matched no benchmarks", pattern)
	}
	return nil
}

// workerCount extracts N from a benchmark name of the form
// <base>/workers=N[-procs], returning base, N, and whether it matched.
func workerCount(name string) (string, int, bool) {
	i := strings.LastIndex(name, "/workers=")
	if i < 0 {
		return "", 0, false
	}
	rest := name[i+len("/workers="):]
	if j := strings.IndexByte(rest, '-'); j >= 0 {
		rest = rest[:j] // strip the -GOMAXPROCS suffix
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return "", 0, false
	}
	return name[:i], n, true
}

// WriteScaling renders the worker-scaling table of a record: benchmarks
// named <base>/workers=N are grouped by base, the workers=1 run is the
// reference, and the speedup and parallel-efficiency columns show what the
// extra workers actually bought (efficiency = speedup / workers; 1.0 is
// perfect linear scaling, and a single-core host pins it near 1/workers).
func WriteScaling(w io.Writer, rec *Record) {
	type point struct {
		n  int
		ns float64
	}
	groups := map[string][]point{}
	var order []string
	for _, b := range rec.Benchmarks {
		base, n, ok := workerCount(b.Name)
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		key := b.Pkg + " " + base
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], point{n, b.NsPerOp})
	}
	for _, key := range order {
		pts := groups[key]
		sort.Slice(pts, func(i, j int) bool { return pts[i].n < pts[j].n })
		var ref float64
		for _, p := range pts {
			if p.n == 1 {
				ref = p.ns
				break
			}
		}
		_, base, _ := strings.Cut(key, " ")
		fmt.Fprintf(w, "\nworker scaling: %s\n", base)
		fmt.Fprintf(w, "%8s %14s %9s %11s\n", "workers", "ns/op", "speedup", "efficiency")
		for _, p := range pts {
			if ref == 0 {
				fmt.Fprintf(w, "%8d %14.0f %9s %11s\n", p.n, p.ns, "n/a", "n/a")
				continue
			}
			speedup := ref / p.ns
			fmt.Fprintf(w, "%8d %14.0f %8.2fx %11.2f\n", p.n, p.ns, speedup, speedup/float64(p.n))
		}
	}
}

// delta formats a percentage change; a zero or missing old value has no
// meaningful ratio.
func delta(oldV, newV float64) string {
	if oldV == 0 || newV == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

// WriteDiff renders the benchmark-by-benchmark comparison of two records,
// matching entries on (pkg, name) and listing unmatched benchmarks at the
// bottom so renames and deletions are visible rather than silently dropped.
func WriteDiff(w io.Writer, oldRec, newRec *Record) error {
	key := func(b Benchmark) string { return b.Pkg + " " + b.Name }
	olds := make(map[string]Benchmark, len(oldRec.Benchmarks))
	for _, b := range oldRec.Benchmarks {
		olds[key(b)] = b
	}
	fmt.Fprintf(w, "%-52s %14s %14s %9s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "ns delta", "allocs")
	matched := map[string]bool{}
	for _, nb := range newRec.Benchmarks {
		ob, ok := olds[key(nb)]
		if !ok {
			continue
		}
		matched[key(nb)] = true
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %9s %9s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp,
			delta(ob.NsPerOp, nb.NsPerOp), delta(ob.AllocsPerOp, nb.AllocsPerOp))
	}
	if len(matched) == 0 {
		return fmt.Errorf("no benchmarks in common between the two records")
	}
	for _, b := range oldRec.Benchmarks {
		if !matched[key(b)] {
			fmt.Fprintf(w, "%-52s only in old record\n", b.Name)
		}
	}
	for _, b := range newRec.Benchmarks {
		if _, ok := olds[key(b)]; !ok {
			fmt.Fprintf(w, "%-52s only in new record\n", b.Name)
		}
	}
	return nil
}

// Parse consumes `go test -bench` output. It tracks pkg/goos/goarch/cpu
// header lines, collects every Benchmark result, and fails if the stream
// contains a test failure marker (a half-failed run is not a trajectory
// point worth recording).
func Parse(r io.Reader) (*Record, error) {
	rec := &Record{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case line == "FAIL" || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "--- FAIL"):
			return nil, fmt.Errorf("input contains a test failure: %q", line)
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line, pkg)
			if err != nil {
				return nil, err
			}
			rec.Benchmarks = append(rec.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return rec, nil
}

func parseBench(line, pkg string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("benchmark line %q: iterations: %v", line, err)
	}
	b := Benchmark{Pkg: pkg, Name: f[0], Iterations: iters}
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("benchmark line %q: value %q: %v", line, f[i], err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}
