// Command perfbench is the repository's benchmark: one closed loop of
// back-to-back passes over a named workload, with the outputs checked and
// every metric printed by name and unit. The last line of standard output is
// the machine-readable result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package and then executes it:
//
//	bash perfbench/run.sh --workload sweep-mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 makes the
// separate traced run that reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// outDir holds the run reports and span dumps, inside the build directory
// the checkout's .gitignore already excludes.
const outDir = ".bench_build/perfbench"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-figures, sweep-mixed, service-short, or all of them in turn")
	seed := fs.Int64("seed", 1, "input seed (paper-figures ignores it)")
	seconds := fs.Float64("seconds", 10, "how long the timed loop measures")
	trace := fs.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
	writeExpect := fs.String("write-expect", "", "regenerate perfbench/expect for seeds `lo-hi` and exit")
	compare := fs.Bool("compare", false, "compare two files of result lines (args: first second) against BENCHMARK.json bounds")
	spawnNs := fs.Int64("child", 0, "internal: run as one measuring process spawned at this Unix time in ns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files of result lines")
		}
		return compareRuns(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	case *writeExpect != "":
		return regenerateExpectations(*writeExpect)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		if *spawnNs != 0 {
			return measureChild(stdout, w, *seed, *seconds, exp, time.Unix(0, *spawnNs))
		}
		_, err = runWorkload(stdout, w, *seed, *seconds, *trace, exp)
		return err
	}
	// All workloads in turn, each printing its own report; the last line
	// then sums them, with metric names prefixed by workload.
	total := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, w := range workloads {
		rep, err := runWorkload(stdout, w, *seed, *seconds, *trace, exp)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && rep.failed == 0
		total.Attempted += rep.attempted
		total.Failed += rep.failed
		for _, m := range rep.metrics {
			total.Metrics[w.name+"/"+m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runWorkload makes one untraced or traced run, writes its report (and
// spans) under outDir and prints it.
func runWorkload(stdout io.Writer, w workload, seed int64, seconds float64, trace int, exp *expectations) (*report, error) {
	env := stampEnv(w.name, seed, seconds, trace)
	var rep *report
	var tr *tracer
	var err error
	if trace == 1 {
		rep, tr, err = tracedRun(w, seed, seconds, exp)
	} else {
		rep, err = endToEnd(w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	env.finish()

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace))
	if tr != nil {
		if err := tr.write(base + "-spans.json"); err != nil {
			return nil, err
		}
	}
	if err := writeReport(base+".json", env, rep); err != nil {
		return nil, err
	}
	printReport(stdout, w, seed, env, rep)
	return rep, nil
}

// report is what one run measured.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	lines     []string // extra human-readable lines: checks, accuracy, notes
}

// metric is one named, unit-carrying number; note qualifies it (the
// percentile a tail rests on, a sample count).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

func (r *report) add(name string, v float64, unit string, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, wl workload, seed int64, env *envStamp, rep *report) {
	stamp, _ := json.Marshal(env)
	fmt.Fprintf(w, "env: %s\n", stamp)
	fmt.Fprintf(w, "workload: %s (%s)\n", wl.name, wl.why)
	if !wl.seeded {
		fmt.Fprintf(w, "seed: %d ignored: %s inputs are the paper's\n", seed, wl.name)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, m := range rep.metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%-44s %14.6g %s%s\n", m.Name, m.Value, m.Unit, note)
		res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

func writeReport(path string, env *envStamp, rep *report) error {
	blob, err := json.MarshalIndent(struct {
		Env       *envStamp `json:"env"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Lines     []string  `json:"lines"`
		Metrics   []metric  `json:"metrics"`
	}{env, rep.attempted, rep.failed, rep.lines, rep.metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
