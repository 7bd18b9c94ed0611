package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime/pprof"
	"time"

	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/stats"
)

// setupReps is how many extra set-up-only rounds a run makes before its
// passes, so setup_s is a median over enough samples even when the time
// budget allows only a few passes.
const setupReps = 30

// pass is one execution of every cell of a workload, in order.
type pass struct {
	traced bool
	runs   []cellRun
	// byKind is host time per span kind, summed over the pass.
	byKind map[string]time.Duration
	// selfTimes is CPU seconds per profile bucket (traced passes only).
	selfTimes map[string]float64
	gcCycles  uint64
	// failures lists, per cell, why its run failed a correctness check.
	failures [][]string
}

// wall is the pass's host time simulating, set-up excluded.
func (p pass) wall() time.Duration {
	var d time.Duration
	for _, r := range p.runs {
		d += r.wall
	}
	return d
}

// measurement is everything one benchmark run records.
type measurement struct {
	w      workloadDef
	seed   int64
	passes []pass
	// setupSamples holds every set-up time measured per cell.
	setupSamples [][]time.Duration
	peakRSS      uint64
	tracer       *obs.Tracer
}

// measure runs the workload's cells in passes until the next pass would end
// past budget; the first pass always runs. A traced measurement alternates
// untraced and traced passes (at least one of each), the traced ones under
// the CPU profiler and the span tracer.
func measure(w workloadDef, seed int64, budget time.Duration, traced bool) (*measurement, error) {
	start := time.Now()
	m := &measurement{w: w, seed: seed, setupSamples: make([][]time.Duration, len(w.cells))}
	if traced {
		m.tracer = obs.NewTracer(nil)
	}
	for r := 0; r < setupReps; r++ {
		for i, c := range w.cells {
			d, err := c.setupOnly(seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name(), err)
			}
			m.setupSamples[i] = append(m.setupSamples[i], d)
		}
	}
	minPasses := 1
	if traced {
		minPasses = 2
	}
	for n := 0; ; n++ {
		t0 := time.Now()
		p, err := runPass(w, seed, traced && n%2 == 1, m.tracer, n)
		if err != nil {
			return nil, err
		}
		var first []cellRun
		if len(m.passes) > 0 {
			first = m.passes[0].runs
		}
		p.failures = checkPass(w, p.runs, first)
		m.passes = append(m.passes, p)
		for i, r := range p.runs {
			m.setupSamples[i] = append(m.setupSamples[i], r.setup)
		}
		if len(m.passes) >= minPasses && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	m.peakRSS = peakRSS()
	return m, nil
}

// runPass executes every cell once. A fork cell warms its parent to half
// of the same model's Baseline cycles from this pass.
func runPass(w workloadDef, seed int64, traced bool, tr *obs.Tracer, n int) (pass, error) {
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pass{}, fmt.Errorf("cpu profile: %w", err)
		}
	} else {
		tr = nil
	}
	m := newMeter(tr)
	root := tr.Begin(obs.Span{}, "pass", fmt.Sprintf("pass %d", n))
	_, gc0 := heapCounters()
	p := pass{traced: traced, runs: make([]cellRun, len(w.cells))}
	for i, c := range w.cells {
		var warm uint64
		if c.fork {
			warm = p.runs[w.baselineOf(i)].res().Cycles / 2
		}
		p.runs[i] = c.run(m, root, seed, warm)
	}
	_, gc1 := heapCounters()
	root.End()
	p.byKind, p.gcCycles = m.byKind, gc1-gc0
	if traced {
		pprof.StopCPUProfile()
		st, err := moduleSelfTimes(prof.Bytes())
		if err != nil {
			return pass{}, err
		}
		p.selfTimes = st
	}
	return p, nil
}

// baselineOf returns the index of the Baseline cell cell i is checked
// against: the same model with the same host-tier setting.
func (w workloadDef) baselineOf(i int) int {
	c := w.cells[i]
	for j, b := range w.cells {
		if b.scheme == "Baseline" && b.model == c.model && b.tier == c.tier && !b.fork {
			return j
		}
	}
	panic("perfbench: workload " + w.name + " has no Baseline cell for " + c.name())
}

// checkPass returns, per cell, every correctness check its run failed. A
// cell fails if it could not run, was cancelled, did not drain, or reports
// another warp-instruction count than its model's Baseline cell (the count
// is a property of model and seed). A fork family also fails if a sharded
// child's Result is not deep-equal to the sequential child's; a host-tier
// cell if it breaks the fault accounting (replays >= faults, and evictions
// at 0.5x oversubscription). Every cell's digest must repeat the first
// pass's (first is nil on the first pass).
func checkPass(w workloadDef, runs, first []cellRun) [][]string {
	out := make([][]string, len(runs))
	for i, r := range runs {
		fail := func(format string, args ...any) { out[i] = append(out[i], fmt.Sprintf(format, args...)) }
		if r.err != nil {
			fail("%v", r.err)
			continue
		}
		res := r.res()
		if res.Cancelled {
			fail("cancelled")
		}
		if !res.Completed {
			fail("did not drain")
		}
		if base := runs[w.baselineOf(i)]; base.err == nil && res.Instructions != base.res().Instructions {
			fail("warp instructions %d, Baseline cell %d", res.Instructions, base.res().Instructions)
		}
		for k := 1; k < len(r.results); k++ {
			if !reflect.DeepEqual(r.results[k], res) {
				fail("shards=%d child Result differs from the sequential child's", forkShards[k])
			}
		}
		if w.cells[i].tier {
			faults, replays := res.Reg.Get("uvm_faults"), res.Reg.Get("uvm_replays")
			if replays < faults {
				fail("uvm replays %d < faults %d", replays, faults)
			}
			if res.Reg.Get("uvm_evictions") == 0 {
				fail("no uvm evictions at 0.5x oversubscription")
			}
		}
		if first != nil && first[i].err == nil && digest(res) != digest(first[i].res()) {
			fail("digest %016x differs from the first pass's %016x", digest(res), digest(first[i].res()))
		}
	}
	return out
}

// digest hashes every simulated statistic of a Result — cycles,
// instructions, traffic, cache, metadata-cache, predictor and registry
// (UVM included) counters — so a change that only speeds up the simulator
// can show it left every simulated result identical.
func digest(r gpu.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(r.Cycles)
	put(r.Instructions)
	for c := 0; c < stats.NumTrafficClasses; c++ {
		put(r.Traffic.ReadBytes[c])
		put(r.Traffic.WriteBytes[c])
	}
	for _, cs := range []stats.CacheStats{r.L1, r.L2, r.Ctr, r.MAC, r.BMT} {
		for _, v := range []uint64{cs.Hits, cs.Misses, cs.MSHRMerges, cs.Evictions, cs.Writebacks, cs.SectorFills} {
			put(v)
		}
	}
	for _, ps := range []stats.PredictorStats{r.ROAccuracy, r.StreamAccuracy} {
		for _, v := range ps.Counts {
			put(v)
		}
	}
	put(math.Float64bits(r.BusUtilization))
	put(r.VictimHits)
	put(r.VictimPushes)
	for _, cv := range r.Reg.Snapshot() {
		h.Write([]byte(cv.Name))
		put(cv.Value)
	}
	for _, b := range []bool{r.Completed, r.Cancelled} {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}
