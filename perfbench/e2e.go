package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// measureProcs is how many measuring processes one end-to-end run spawns,
// one after another. Set-up time and peak RSS are per-process quantities —
// a process starts once and has one high-water mark — and both swing with
// GC pacing and page placement, so the run reports their median over
// several processes instead of trusting one.
const measureProcs = 7

// endToEndMetrics lists what an untraced run reports. failed_frac is printed
// beside them but is not one of them: it is 0 on a correct run, and the
// result line already carries attempted and failed.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// childResult is what one measuring process reports to the parent, as the
// last line of its standard output.
type childResult struct {
	SetupS     float64   `json:"setup_s"`
	Rates      []float64 `json:"rates"` // ops per second of each pass
	Ops        int       `json:"ops"`
	Failed     int       `json:"failed"`
	AllocBytes uint64    `json:"alloc_bytes"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	OpsPerPass int       `json:"ops_per_pass"`
	Workers    int       `json:"workers"`
	Check      string    `json:"check"`
	Accuracy   string    `json:"accuracy,omitempty"`
}

// endToEnd is the untraced run. It spawns measureProcs processes of this
// binary one after another; each sets up the workload once (spec expansion,
// expectations, reference runs, listener start-up, one untimed warm-up pass)
// and then runs a closed loop of back-to-back passes for its share of the
// seconds. No two measuring processes run at once.
func endToEnd(w workload, seed int64, seconds float64) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	share := seconds / measureProcs
	var kids []childResult
	for range measureProcs {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(share, 'g', -1, 64),
			"--child", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("measuring process: %w", err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var kid childResult
		if err := json.Unmarshal(lines[len(lines)-1], &kid); err != nil {
			return nil, fmt.Errorf("measuring process output: %w", err)
		}
		kids = append(kids, kid)
	}

	rep := &report{}
	var setups, rates, rss []float64
	var alloc uint64
	for _, k := range kids {
		setups = append(setups, k.SetupS)
		rates = append(rates, k.Rates...)
		rss = append(rss, k.PeakRSSMB)
		alloc += k.AllocBytes
		rep.attempted += k.Ops
		rep.failed += k.Failed
	}
	first := kids[0]
	q1, q3 := quartiles(rates)
	rep.linef("check: %s", first.Check)
	rep.linef("load: closed loop on one goroutine driving %d worker(s); %d processes x %.3g s; %d passes of %d ops; pass rate q1 %.4g / median %.4g / q3 %.4g ops/s",
		first.Workers, measureProcs, share, len(rates), first.OpsPerPass, q1, median(rates), q3)
	if first.Accuracy != "" {
		rep.lines = append(rep.lines, first.Accuracy)
	}
	rep.linef("failed_frac %.6g (%d of %d ops)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median over %d processes %v", len(setups), round3(setups)))
	rep.add("ops_per_s", median(rates), "1/s", fmt.Sprintf("median of %d passes", len(rates)))
	rep.add("alloc_mb_per_op", float64(alloc)/1e6/float64(rep.attempted), "MB", "TotalAlloc delta over the timed passes")
	rep.add("peak_rss_mb", median(rss), "MB", fmt.Sprintf("median VmHWM over %d processes %v", len(rss), round3(rss)))
	return rep, conform(rep, endToEndMetrics)
}

// measureChild is one measuring process: set up once, timed from spawn
// (process start), then back-to-back passes for the given seconds.
func measureChild(stdout io.Writer, w workload, seed int64, seconds float64, exp *expectations, spawned time.Time) error {
	j, err := w.prepare(seed, exp)
	if err != nil {
		return err
	}
	res := childResult{SetupS: time.Now().Sub(spawned).Seconds(), OpsPerPass: j.ops, Workers: j.workers, Check: j.check}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(res.Rates) == 0 || time.Since(start).Seconds() < seconds {
		f, elapsed, err := j.pass(nil, 0)
		if err != nil {
			return err
		}
		res.Rates = append(res.Rates, float64(j.ops)/elapsed.Seconds())
		res.Ops += j.ops
		res.Failed += f
	}
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if res.PeakRSSMB, err = vmHWM(); err != nil {
		return err
	}
	if j.last != nil {
		res.Accuracy = accuracyLine(j.last)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}
