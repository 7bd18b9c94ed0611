package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"shmgpu/internal/gpu"
)

// benchmarkDef is BENCHMARK.json at the repository root.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return def
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkDefinition(t *testing.T) {
	def := loadBenchmarkDef(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), benchmark defines %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", def.RunSeconds)
	}
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range append(append([]benchMetric(nil), def.EndToEnd...), def.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range def.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
		maxBound = max(maxBound, *m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound: %g < %g", setupBound, maxBound)
	}
	for _, m := range def.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
}

// tiny shrinks a workload to its first model's cells, swapped for the
// cheapest model, so a smoke run takes seconds.
func tiny(w workloadDef) workloadDef {
	out := workloadDef{name: w.name}
	for _, c := range w.cells {
		if c.model == w.cells[0].model {
			c.model = "sad"
			out.cells = append(out.cells, c)
		}
	}
	return out
}

// TestSmokeEmitsEveryMetric runs each workload, shrunk, through one
// untraced and one traced pass, and checks that every cell passes its
// checks (the second pass repeats every digest of the first) and that
// every metric BENCHMARK.json names is reported with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	def := loadBenchmarkDef(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m, err := measure(tiny(w), 7, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.passes) != 2 {
				t.Fatalf("%d passes, want 2", len(m.passes))
			}
			if failed, attempted := m.failed(); failed != 0 || attempted != 2*len(m.w.cells) {
				t.Fatalf("failed %d of %d: %v", failed, attempted, m.passes[1].failures)
			}
			checkEmitted(t, "end-to-end", m.endToEnd(), def.EndToEnd, true)
			checkEmitted(t, "per-layer", m.perLayer(), def.PerLayer, false)
		})
	}
}

func checkEmitted(t *testing.T, kind string, got metricList, want []benchMetric, nonZero bool) {
	t.Helper()
	byName := map[string]metric{}
	for _, m := range got {
		byName[m.name] = m
	}
	if len(byName) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", kind, len(byName), len(want))
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %q not emitted", kind, w.Name)
		case m.unit != w.Unit:
			t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, w.Name, m.unit, w.Unit)
		case nonZero && !(m.value > 0):
			t.Errorf("%s metric %q = %g, want > 0", kind, w.Name, m.value)
		}
	}
}

// fakeRun is a passing cell run with the given Result fields.
func fakeRun(insts uint64, reg map[string]uint64) cellRun {
	res := gpu.Result{Cycles: 1000, Instructions: insts, Completed: true}
	for k, v := range reg {
		res.Reg.Add(k, v)
	}
	return cellRun{results: []gpu.Result{res}, wall: time.Second}
}

func TestInjectedBadResultsCounted(t *testing.T) {
	w := workloadDef{name: "inject", cells: []cell{
		{model: "sad", scheme: "Baseline"},
		{model: "sad", scheme: "SHM"},
		{model: "sad", scheme: "SHM", fork: true},
		{model: "sad", scheme: "Baseline", tier: true, prefetch: "none"},
		{model: "sad", scheme: "SHM", tier: true, prefetch: "none"},
	}}
	uvm := map[string]uint64{"uvm_faults": 10, "uvm_replays": 12, "uvm_evictions": 3}
	good := []cellRun{fakeRun(100, nil), fakeRun(100, nil), fakeRun(100, nil), fakeRun(100, uvm), fakeRun(100, uvm)}
	if f := checkPass(w, good, good); f[0] != nil || f[1] != nil || f[2] != nil || f[3] != nil || f[4] != nil {
		t.Fatalf("good pass flagged: %v", f)
	}

	bad := append([]cellRun(nil), good...)
	bad[1] = fakeRun(99, nil) // instruction count differs from Baseline's
	fork := fakeRun(100, nil)
	child := fork.results[0]
	child.Cycles++
	fork.results = append(fork.results, child) // sharded child differs
	bad[2] = fork
	bad[4] = fakeRun(100, map[string]uint64{"uvm_faults": 10, "uvm_replays": 9}) // replays < faults, no evictions
	m := &measurement{w: w, passes: []pass{
		{runs: good, failures: checkPass(w, good, nil)},
		{runs: bad, failures: checkPass(w, bad, good)},
	}}
	fails := m.passes[1].failures
	for i, want := range []int{0, 2, 1, 0, 3} { // cell 1 also changes digest
		if len(fails[i]) != want {
			t.Errorf("cell %s: %d failures %q, want %d", w.cells[i].name(), len(fails[i]), fails[i], want)
		}
	}
	failed, attempted := m.failed()
	if failed != 3 || attempted != 10 {
		t.Fatalf("failed %d of %d, want 3 of 10", failed, attempted)
	}
	var out bytes.Buffer
	if err := report(&out, m, metricList{{"wall_s", 1, "s"}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Correct || final.Failed != 3 || final.Attempted != 10 {
		t.Errorf("final line %+v, want correct=false failed=3 attempted=10", final)
	}
	if !strings.Contains(out.String(), "fail_frac 0.3 (3 of 10 cell runs)") {
		t.Errorf("report lacks fail_frac 0.3:\n%s", out.String())
	}
}

func TestDigestCoversStatistics(t *testing.T) {
	base := fakeRun(100, map[string]uint64{"uvm_faults": 1}).res()
	mutants := []func(*gpu.Result){
		func(r *gpu.Result) { r.Cycles++ },
		func(r *gpu.Result) { r.Traffic.ReadBytes[2]++ },
		func(r *gpu.Result) { r.MAC.Hits++ },
		func(r *gpu.Result) { r.Reg.Add("uvm_faults", 1) },
		func(r *gpu.Result) { r.BusUtilization += 1e-9 },
	}
	for i, mut := range mutants {
		r := fakeRun(100, map[string]uint64{"uvm_faults": 1}).res()
		mut(&r)
		if digest(r) == digest(base) {
			t.Errorf("mutant %d keeps the digest", i)
		}
	}
}

func TestFileBuckets(t *testing.T) {
	for file, want := range map[string]string{
		"shmgpu/internal/gpu/system.go":      "gpu.core.self_s",
		"shmgpu/internal/gpu/uvm.go":         "gpu.uvm.self_s",
		"/src/x/internal/gpu/parallel.go":    "gpu.parallel.self_s",
		"shmgpu/internal/metadata/layout.go": "secmem.self_s",
		"shmgpu/internal/hostmem/hostmem.go": "hostmem.self_s",
		"shmgpu/internal/stats/stats.go":     bucketOther,
		"runtime/proc.go":                    bucketOther,
	} {
		if got := fileBucket(file); got != want {
			t.Errorf("fileBucket(%q) = %q, want %q", file, got, want)
		}
	}
	stack := []frame{{"runtime.memmove", "runtime/memmove.s"}, {"runtime.gcDrain", "runtime/mgcmark.go"}}
	if got := bucketOf(stack); got != bucketGC {
		t.Errorf("GC stack -> %q", got)
	}
	stack = []frame{{"runtime.futex", "runtime/sys.s"}, {"shmgpu/internal/pool.(*Pool).Run", "shmgpu/internal/pool/pool.go"}}
	if got := bucketOf(stack); got != bucketSched {
		t.Errorf("futex stack -> %q", got)
	}
}

var sink uint64

func TestProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + 1
		}
	}
	pprof.StopCPUProfile()
	st, err := moduleSelfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range profileBuckets {
		total += st[b]
	}
	if len(st) != len(profileBuckets) || total <= 0 || st[bucketOther] <= 0 {
		t.Errorf("buckets %v: want every bucket and CPU time in %s", st, bucketOther)
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "secure-resident", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}
