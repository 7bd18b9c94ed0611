package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/workload"
)

// cell is one simulation the benchmark runs to drain: a model under a
// secure-memory scheme, optionally behind the oversubscribed host tier, or
// a warm-pool fork family.
type cell struct {
	model, scheme string
	// tier puts the model behind the host-backed tier at OversubRatio 0.5
	// with 4 KiB pages; prefetch is the UVM migration-ahead policy.
	tier     bool
	prefetch string
	// fork makes the cell a warm-pool fork family: a parent warmed with
	// RunUntil to half the model's Baseline cycles, captured with
	// SaveState, and two children restored with LoadState+Resume, one
	// sequential and one at ParallelShards=2.
	fork bool
}

func (c cell) name() string {
	n := c.model + "/" + c.scheme
	if c.tier {
		n += "+" + c.prefetch
	}
	if c.fork {
		n += "/fork"
	}
	return n
}

// forkShards are the execution strategies of a fork family's children; the
// first is the sequential reference the others must equal.
var forkShards = []int{0, 2}

func (c cell) config(shards int) gpu.Config {
	cfg := experiments.QuickConfig()
	// Without the cycle cap a cell's simulated work is fixed by (model,
	// seed): faster modelled hardware means fewer ticks, not more
	// instructions inside the cap.
	cfg.MaxCycles = 0
	cfg.ParallelShards = shards
	if c.tier {
		cfg.HostTier = true
		cfg.OversubRatio = 0.5
		cfg.UVMPageBytes = 4096
		cfg.UVMPrefetch = c.prefetch
	}
	return cfg
}

// workloadDef is one named benchmark workload: cells run one at a time, in
// order, once per pass. Every model's Baseline cell precedes its other
// cells, because they are checked against it.
type workloadDef struct {
	name  string
	cells []cell
}

func crossCells(models []string, variants []cell) []cell {
	var out []cell
	for _, m := range models {
		for _, v := range variants {
			v.model = m
			out = append(out, v)
		}
	}
	return out
}

// workloads are the benchmark's workloads. Each stresses different layers:
// secure-resident the tick loop, caches, metadata caches, detectors and
// DRAM with hostmem, snapshot and the parallel engine idle; uvm-oversub the
// host tier, the fault/replay glue and fast-forward across PCIe waits;
// fork-sharded the snapshot engine and the sharded parallel engine.
var workloads = []workloadDef{
	{
		name:  "secure-resident",
		cells: crossCells([]string{"atax", "lbm"}, []cell{{scheme: "Baseline"}, {scheme: "Naive"}, {scheme: "SHM"}}),
	},
	{
		name: "uvm-oversub",
		// Stream prefetch's simulated cycles swing by up to a third between
		// seeds, so it runs on one model only and the demand-paged cells
		// dilute that swing in the host-time metrics.
		cells: append(crossCells([]string{"atax"}, []cell{
			{scheme: "Baseline", tier: true, prefetch: "none"},
			{scheme: "SHM", tier: true, prefetch: "none"},
			{scheme: "SHM", tier: true, prefetch: "stream"},
		}), crossCells([]string{"sad"}, []cell{
			{scheme: "Baseline", tier: true, prefetch: "none"},
			{scheme: "SHM", tier: true, prefetch: "none"},
		})...),
	},
	{
		name:  "fork-sharded",
		cells: crossCells([]string{"fdtd2d", "bfs"}, []cell{{scheme: "Baseline"}, {scheme: "SHM", fork: true}}),
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// meter times calls into the simulator's public functions from outside.
// Each call is one span under its cell's span (a nil tracer records
// nothing) and adds its host time to the set-up or simulation totals.
type meter struct {
	tr *obs.Tracer
	// setup is process CPU time in workload.ByNameSeeded and
	// gpu.NewSystem; wall and cpu are host wall and process CPU time in
	// every other call. Set-up and the end-to-end speed metrics use CPU
	// time because on a shared VM the wall clock also counts time the
	// hypervisor gives other guests (vCPU steal).
	setup, wall, cpu time.Duration
	// byKind totals host time per layer span kind.
	byKind map[string]time.Duration
}

func newMeter(tr *obs.Tracer) *meter {
	return &meter{tr: tr, byKind: map[string]time.Duration{}}
}

// Span kinds, named after the per-layer metrics they feed.
const (
	kindBuild = "workload.build"
	kindNew   = "gpu.new"
	kindRun   = "gpu.run"
	kindSave  = "snapshot.save"
	kindLoad  = "snapshot.load"
)

func (m *meter) time(parent obs.Span, kind, call string, f func()) {
	sp := m.tr.Begin(parent, kind, call)
	c0 := cpuTime()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	cd := cpuTime() - c0
	sp.End()
	m.byKind[kind] += d
	if kind == kindBuild || kind == kindNew {
		m.setup += cd
	} else {
		m.wall += d
		m.cpu += cd
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in bytes.
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}

// heapCounters returns the cumulative heap bytes allocated and GC cycles.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cellRun is one execution of a cell.
type cellRun struct {
	// results are the Results the cell delivers: one for a scratch cell,
	// one per fork child (forkShards order) for a fork family.
	results []gpu.Result
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	// snapBytes is the fork parent's snapshot size.
	snapBytes int
	// err is a harness-level failure (the cell could not be run as
	// specified); it counts as a failed cell.
	err error
}

// res is the cell's reference Result (the sequential child for forks).
func (r cellRun) res() gpu.Result {
	if len(r.results) == 0 {
		return gpu.Result{}
	}
	return r.results[0]
}

// build performs one cell's set-up calls.
func (c cell) build(m *meter, parent obs.Span, seed int64, shards int) (*workload.Bench, *gpu.System, error) {
	sch, err := scheme.ByName(c.scheme)
	if err != nil {
		return nil, nil, err
	}
	var b *workload.Bench
	m.time(parent, kindBuild, "workload.ByNameSeeded", func() { b, err = workload.ByNameSeeded(c.model, seed) })
	if err != nil {
		return nil, nil, err
	}
	var sys *gpu.System
	m.time(parent, kindNew, "gpu.NewSystem", func() { sys = gpu.NewSystem(c.config(shards), sch.Options) })
	return b, sys, nil
}

// systemShards lists the ParallelShards of every system one execution of
// the cell builds, in build order.
func (c cell) systemShards() []int {
	if c.fork {
		return append([]int{0}, forkShards...)
	}
	return []int{0}
}

// run executes the cell once. warmCycle is where a fork parent pauses.
func (c cell) run(m *meter, parent obs.Span, seed int64, warmCycle uint64) cellRun {
	// Collecting first leaves no garbage of earlier cells for this one's
	// collector to pay for, so cells measure independently of their order.
	runtime.GC()
	sp := m.tr.Begin(parent, "cell", c.name())
	defer sp.End()
	setup0, wall0, cpu0 := m.setup, m.wall, m.cpu
	alloc0, _ := heapCounters()
	var out cellRun
	if c.fork {
		out = c.runFork(m, sp, seed, warmCycle)
	} else {
		out = c.runScratch(m, sp, seed)
	}
	alloc1, _ := heapCounters()
	out.setup, out.wall, out.cpu = m.setup-setup0, m.wall-wall0, m.cpu-cpu0
	out.alloc = alloc1 - alloc0
	return out
}

func (c cell) runScratch(m *meter, sp obs.Span, seed int64) cellRun {
	b, sys, err := c.build(m, sp, seed, 0)
	if err != nil {
		return cellRun{err: err}
	}
	var res gpu.Result
	m.time(sp, kindRun, "System.Run", func() { res = sys.Run(b) })
	res.Scheme = c.scheme
	return cellRun{results: []gpu.Result{res}}
}

func (c cell) runFork(m *meter, sp obs.Span, seed int64, warmCycle uint64) cellRun {
	b, sys, err := c.build(m, sp, seed, 0)
	if err != nil {
		return cellRun{err: err}
	}
	var done bool
	m.time(sp, kindRun, "System.RunUntil", func() { _, done = sys.RunUntil(b, warmCycle) })
	if done {
		return cellRun{err: fmt.Errorf("parent finished before warm cycle %d", warmCycle)}
	}
	enc := snapshot.NewEncoder()
	m.time(sp, kindSave, "System.SaveState", func() { err = sys.SaveState(enc, b) })
	m.time(sp, kindRun, "System.Shutdown", sys.Shutdown)
	if err != nil {
		return cellRun{err: fmt.Errorf("SaveState: %w", err)}
	}
	blob := enc.Data()
	out := cellRun{snapBytes: len(blob)}
	for _, shards := range forkShards {
		b, sys, err := c.build(m, sp, seed, shards)
		if err != nil {
			return cellRun{err: err}
		}
		m.time(sp, kindLoad, "System.LoadState", func() { err = sys.LoadState(snapshot.NewDecoder(blob), b) })
		if err != nil {
			return cellRun{err: fmt.Errorf("LoadState (shards=%d): %w", shards, err)}
		}
		var res gpu.Result
		m.time(sp, kindRun, "System.Resume", func() { res = sys.Resume(b) })
		res.Scheme = c.scheme
		out.results = append(out.results, res)
	}
	return out
}

// setupOnly performs the cell's set-up calls once more, without simulating,
// and returns their CPU time: extra set-up samples for the setup_s median.
func (c cell) setupOnly(seed int64) (time.Duration, error) {
	runtime.GC() // as in run: no earlier garbage to collect
	m := newMeter(nil)
	for _, shards := range c.systemShards() {
		if _, _, err := c.build(m, obs.Span{}, seed, shards); err != nil {
			return 0, err
		}
	}
	return m.setup, nil
}
