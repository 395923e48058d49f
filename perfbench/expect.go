package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"iothub/internal/experiments"
	"iothub/internal/fleet"
)

// expectFS holds the committed output expectations. They pin today's
// outputs: a change that alters what the simulator computes shows up as
// failed ops until the expectations are regenerated with -write-expect.
//
//go:embed expect/*.json
var expectFS embed.FS

const (
	paperFile       = "expect/paper-figures.json"
	fingerprintFile = "expect/fingerprints.json"
)

type expectations struct {
	// Paper maps artifact ID → its Values.
	Paper map[string]map[string]float64
	// Fingerprints maps workload → seed → Agg.Fingerprint().
	Fingerprints map[string]map[string]string
}

func loadExpectations() (*expectations, error) {
	e := &expectations{}
	for path, dst := range map[string]any{paperFile: &e.Paper, fingerprintFile: &e.Fingerprints} {
		blob, err := expectFS.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(blob, dst); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return e, nil
}

// fingerprint returns the committed fingerprint for a seed, if any.
func (e *expectations) fingerprint(workload string, seed int64) (string, bool) {
	fp, ok := e.Fingerprints[workload][strconv.FormatInt(seed, 10)]
	return fp, ok
}

// regenerateExpectations rewrites perfbench/expect from the current tree:
// the paper artifacts' values and, for every seed in lo-hi, each sweep's
// in-process fingerprint. Run it from the repository root.
func regenerateExpectations(seeds string) error {
	loS, hiS, ok := strings.Cut(seeds, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if !ok || err1 != nil || err2 != nil || lo > hi {
		return fmt.Errorf("-write-expect wants lo-hi, got %q", seeds)
	}
	paper := map[string]map[string]float64{}
	for _, e := range experiments.All() {
		r, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		paper[e.ID] = r.Values
	}
	fps := map[string]map[string]string{}
	for _, w := range workloads {
		if !w.seeded {
			continue
		}
		fps[w.name] = map[string]string{}
		for seed := lo; seed <= hi; seed++ {
			res, err := fleet.Run(w.spec(seed), fleet.Options{Workers: nproc})
			if err != nil {
				return err
			}
			if res.Agg.Errors != 0 {
				return fmt.Errorf("%s seed %d: %d scenarios failed: %v", w.name, seed, res.Agg.Errors, res.Failed[0])
			}
			fps[w.name][strconv.FormatInt(seed, 10)] = res.Agg.Fingerprint()
		}
	}
	for path, v := range map[string]any{paperFile: paper, fingerprintFile: fps} {
		blob, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := os.WriteFile(filepath.Join("perfbench", path), append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// paperAverages are the evaluation's headline averages the simulator is
// judged against: artifact, value key, paper figure.
var paperAverages = []struct {
	label, artifact, key string
	paper                float64
}{
	{"Batching", "fig10", "avgBatchingSaving", 0.52},
	{"COM", "fig10", "avgCOMSaving", 0.85},
	{"BEAM", "fig11", "avgBEAMSaving", 0.29},
	{"offload", "fig11", "avgOffloadSaving", 0.70},
}

// accuracyLine states the simulator's error against the paper's averages.
// It is reported, never gated.
func accuracyLine(results []*experiments.Result) string {
	byID := map[string]*experiments.Result{}
	for _, r := range results {
		byID[r.ID] = r
	}
	var b strings.Builder
	b.WriteString("accuracy (not gated): paper-average saving, simulated vs paper:")
	for _, a := range paperAverages {
		r := byID[a.artifact]
		if r == nil {
			fmt.Fprintf(&b, " %s n/a;", a.label)
			continue
		}
		v := r.Values[a.key]
		fmt.Fprintf(&b, " %s %.1f%% vs %.0f%% (%+.1f pp);", a.label, 100*v, 100*a.paper, 100*(v-a.paper))
	}
	return strings.TrimSuffix(b.String(), ";")
}

// compareRuns applies the benchmark's acceptance rule to two files of result
// lines (the last stdout line of each run, one per line) from two sets of
// runs of one workload, against the bounds in BENCHMARK.json.
func compareRuns(w io.Writer, benchPath, firstPath, secondPath string) error {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	first, err := readResults(firstPath)
	if err != nil {
		return err
	}
	second, err := readResults(secondPath)
	if err != nil {
		return err
	}
	var bad []string
	for _, m := range bench.EndToEnd {
		a, b := first[m.Name], second[m.Name]
		if len(a) == 0 || len(b) == 0 {
			bad = append(bad, m.Name+": missing from a result file")
			continue
		}
		fmt.Fprintf(w, "%-16s median %.6g / %.6g  spread %.4f / %.4f  bound %.2f\n",
			m.Name, median(a), median(b), spread(a), spread(b), m.Bound)
		bad = append(bad, checkBound(m, a, b)...)
	}
	sort.Strings(bad)
	for _, l := range bad {
		fmt.Fprintln(w, "FAIL", l)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d bound violations", len(bad))
	}
	fmt.Fprintln(w, "ok: every metric within its bound")
	return nil
}

// readResults collects each metric's values over a file of result lines.
func readResults(path string) (map[string][]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run reported correct=false", path)
		}
		for k, v := range r.Metrics {
			out[k] = append(out[k], v.Value)
		}
	}
	return out, sc.Err()
}
