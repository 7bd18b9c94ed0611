// Command perfbench is the repository benchmark. It runs one named workload
// — a fixed list of simulation cells, each run to drain — in repeated passes
// for a time budget, checks every cell's result, and prints a report
// followed by one JSON line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a run that alternates untraced passes with passes
// under the CPU profiler and span tracer.
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps every artefact under .bench_build/:
//
//	bash perfbench/run.sh --workload secure-resident --seed 1 --seconds 38 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"shmgpu"
	"shmgpu/internal/telemetry"
)

// traceDir, relative to the checkout root, receives the Chrome trace of a
// traced run.
const traceDir = ".bench_build/traces"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main; it returns the exit code: 0 on a
// completed measurement (its "correct" field reports the checks), 1 when
// the measurement could not be made, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wlName := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 0, "workload seed passed to workload.ByNameSeeded (0 keeps each model's built-in seed)")
	seconds := fs.Float64("seconds", 10, "time budget for the passes; the first pass always runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced passes; 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wlName)
	if err != nil || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload {%s} and -trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	traced := *trace == 1
	m, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	metrics := m.endToEnd()
	if traced {
		metrics = m.perLayer()
		path, err := writeTrace(traceDir, m)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace: %s\n", path)
	}
	if err := report(stdout, m, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints the run's environment, every cell's digest and simulated
// figures, the metrics with their units and any failed check, then the
// final JSON line.
func report(w io.Writer, m *measurement, metrics metricList) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d passes=%d num_cpu=%d gomaxprocs=%d go=%s\n",
		m.w.name, m.seed, len(m.passes), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	seen := map[string]bool{}
	for _, c := range m.w.cells {
		if seen[c.model] {
			continue
		}
		seen[c.model] = true
		eff, err := shmgpu.EffectiveSeed(c.model, m.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "effective_seed %s %d\n", c.model, eff)
	}
	for k, p := range m.passes {
		fmt.Fprintf(w, "pass %d traced=%v wall_s=%.3f\n", k, p.traced, p.wall().Seconds())
	}
	plain := m.selectPasses(false)
	var wall float64
	for i, c := range m.w.cells {
		res := m.passes[0].runs[i].res()
		cw := cellMedian(plain, i, func(r cellRun) float64 { return r.wall.Seconds() })
		wall += cw
		fmt.Fprintf(w, "cell %-24s digest=%016x cycles=%d warp_inst=%d ipc=%.4f meta_bw=%.4f wall_s=%.3f\n",
			c.name(), digest(res), res.Cycles, res.Instructions, res.IPC(), res.BandwidthOverhead(), cw)
	}
	// Wall time is reported beside the metrics but not gated: on a shared
	// VM it includes vCPU steal (see meter in cells.go).
	fmt.Fprintf(w, "wall_s %.6g s (host wall time simulating, set-up excluded; reported only)\n", wall)
	for _, mt := range metrics {
		fmt.Fprintf(w, "metric %-24s %.6g %s\n", mt.name, mt.value, mt.unit)
	}
	failed, attempted := m.failed()
	fmt.Fprintf(w, "fail_frac %.4g (%d of %d cell runs)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	for k, p := range m.passes {
		for i, fs := range p.failures {
			for _, f := range fs {
				fmt.Fprintf(w, "FAIL pass %d %s: %s\n", k, m.w.cells[i].name(), f)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, mt := range metrics {
		final.Metrics[mt.name] = value{mt.value, mt.unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace writes the traced passes' spans as a Chrome/Perfetto trace.
func writeTrace(dir string, m *measurement) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", m.w.name, m.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := m.tracer.WriteChromeTrace(f, telemetry.Manifest{Tool: "perfbench", Workload: m.w.name, Seed: m.seed})
	if err := f.Close(); werr == nil {
		werr = err
	}
	return path, werr
}
