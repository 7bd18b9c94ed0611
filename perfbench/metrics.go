package main

import (
	"math"
	"sort"
	"time"

	"shmgpu/internal/gpu"
	"shmgpu/internal/stats"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricList []metric

func (l *metricList) add(name string, value float64, unit string) {
	*l = append(*l, metric{name, value, unit})
}

const mib = 1 << 20

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// selectPasses returns the passes whose traced flag matches.
func (m *measurement) selectPasses(traced bool) []pass {
	var out []pass
	for _, p := range m.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// cellMedian is a cell's median over passes of one per-run figure.
func cellMedian(ps []pass, i int, f func(cellRun) float64) float64 {
	xs := make([]float64, len(ps))
	for k, p := range ps {
		xs[k] = f(p.runs[i])
	}
	return median(xs)
}

// simulated sums the simulated cycles and warp instructions of every
// Result the first pass delivered (both children of a fork family count:
// each delivers the whole run). Every pass delivers identical Results.
func (m *measurement) simulated() (cycles, insts float64) {
	for _, r := range m.passes[0].runs {
		for _, res := range r.results {
			cycles += float64(res.Cycles)
			insts += float64(res.Instructions)
		}
	}
	return cycles, insts
}

// failed counts cell runs that failed a check, and attempted all of them.
func (m *measurement) failed() (failed, attempted int) {
	for _, p := range m.passes {
		for _, f := range p.failures {
			attempted++
			if len(f) > 0 {
				failed++
			}
		}
	}
	return failed, attempted
}

// endToEnd computes the end-to-end metrics from the untraced passes: host
// figures are per-cell medians over passes summed over the cells, and
// simulated figures come from the (identical) Results of every pass.
func (m *measurement) endToEnd() metricList {
	ps := m.selectPasses(false)
	var l metricList
	var setup, cpu, alloc float64
	for i := range m.w.cells {
		setup += medianDur(m.setupSamples[i])
		cpu += cellMedian(ps, i, func(r cellRun) float64 { return r.cpu.Seconds() })
		alloc += cellMedian(ps, i, func(r cellRun) float64 { return float64(r.alloc) })
	}
	cycles, insts := m.simulated()
	l.add("setup_s", setup, "s")
	l.add("cpu_s", cpu, "s")
	l.add("sim_minst_per_cpu_s", ratio(insts/1e6, cpu), "Minst/cpu-s")
	l.add("sim_mcycles_per_cpu_s", ratio(cycles/1e6, cpu), "Mcycles/cpu-s")
	l.add("peak_rss_mb", float64(m.peakRSS)/mib, "MiB")
	l.add("alloc_mb", alloc/mib, "MiB")
	sim, norm, meta := m.modelled()
	l.add("sim_ipc", sim, "inst/cycle")
	l.add("shm_norm_ipc", norm, "ratio")
	l.add("meta_bw_overhead", meta, "ratio")
	return l
}

// modelled computes the modelled-design metrics of the first pass: the
// geomean IPC over cells, the geomean over models of IPC(SHM)/IPC(Baseline)
// under the same host-tier setting and demand paging (paper Fig. 12), and
// metadata bytes over data bytes of the secure cells (paper Fig. 14).
func (m *measurement) modelled() (simIPC, shmNorm, metaOverhead float64) {
	runs := m.passes[0].runs
	var ipcs, norms []float64
	var meta, data uint64
	for i, c := range m.w.cells {
		res := runs[i].res()
		ipcs = append(ipcs, res.IPC())
		if c.scheme == "Baseline" {
			continue
		}
		if c.scheme == "SHM" && c.prefetch != "stream" {
			norms = append(norms, ratio(res.IPC(), runs[m.w.baselineOf(i)].res().IPC()))
		}
		meta += res.Traffic.MetadataBytes()
		data += res.Traffic.DataBytes()
	}
	return geomean(ipcs), geomean(norms), ratio(float64(meta), float64(data))
}

// perLayer computes the per-layer metrics: host time per span kind and per
// profile bucket as medians over the traced passes, layer counters summed
// over the cells' Results, and the tracing overhead.
func (m *measurement) perLayer() metricList {
	traced, plain := m.selectPasses(true), m.selectPasses(false)
	var l metricList
	kindMedian := func(kind string) float64 {
		xs := make([]float64, len(traced))
		for k, p := range traced {
			xs[k] = p.byKind[kind].Seconds()
		}
		return median(xs)
	}
	for _, kind := range []string{kindBuild, kindNew, kindRun, kindSave, kindLoad} {
		l.add(kind+"_s", kindMedian(kind), "s")
	}
	cycles, insts := m.simulated()
	l.add("gpu.host_ns_per_kcycle", ratio(kindMedian(kindRun)*1e9, cycles/1e3), "ns/kcycle")
	l.add("gpu.sim_cycles", cycles, "count")
	l.add("gpu.warp_inst", insts, "count")
	for _, b := range profileBuckets {
		xs := make([]float64, len(traced))
		for k, p := range traced {
			xs[k] = p.selfTimes[b]
		}
		l.add(b, median(xs), "s")
	}
	gcs := make([]float64, len(traced))
	for k, p := range traced {
		gcs[k] = float64(p.gcCycles)
	}
	l.add("gc.cycles", median(gcs), "count")
	wallOf := func(ps []pass) float64 {
		xs := make([]float64, len(ps))
		for k, p := range ps {
			xs[k] = p.wall().Seconds()
		}
		return median(xs)
	}
	l.add("trace.overhead_frac", ratio(wallOf(traced), wallOf(plain))-1, "ratio")
	m.layerCounters(&l)
	return l
}

// layerCounters adds the modelled layers' counters, aggregated over every
// Result of the first pass.
func (m *measurement) layerCounters(l *metricList) {
	var sum gpu.Result
	var secureCtr, secureMAC, secureBMT stats.CacheStats
	var bus float64
	var n int
	for i, r := range m.passes[0].runs {
		for _, res := range r.results {
			n++
			sum.L1.Merge(&res.L1)
			sum.L2.Merge(&res.L2)
			sum.Traffic.Merge(&res.Traffic)
			sum.VictimHits += res.VictimHits
			sum.Reg.Merge(&res.Reg)
			bus += res.BusUtilization
			if m.w.cells[i].scheme != "Baseline" {
				secureCtr.Merge(&res.Ctr)
				secureMAC.Merge(&res.MAC)
				secureBMT.Merge(&res.BMT)
			}
		}
	}
	hitRate := func(c stats.CacheStats) float64 { return 1 - c.MissRate() }
	l.add("l1.hit_rate", hitRate(sum.L1), "ratio")
	l.add("l2.hit_rate", hitRate(sum.L2), "ratio")
	l.add("l2.mshr_merges", float64(sum.L2.MSHRMerges), "count")
	l.add("l2.victim_hits", float64(sum.VictimHits), "count")
	l.add("mdc.ctr.hit_rate", hitRate(secureCtr), "ratio")
	l.add("mdc.mac.hit_rate", hitRate(secureMAC), "ratio")
	l.add("mdc.bmt.hit_rate", hitRate(secureBMT), "ratio")
	for c := stats.TrafficData; c < stats.TrafficClass(stats.NumTrafficClasses); c++ {
		l.add("traffic."+c.String()+"_mb", float64(sum.Traffic.Bytes(c))/mib, "MiB")
	}
	reg := func(name string) float64 { return float64(sum.Reg.Get(name)) }
	// The streaming detector's outcomes per completed monitoring phase and
	// the read-only predictor's RO-to-RW transitions; the Fig. 10/11
	// accuracy harness is off in these cells.
	phases := reg("det_stream") + reg("det_random")
	l.add("detectors.stream_frac", ratio(reg("det_stream"), phases), "ratio")
	l.add("detectors.timeout_frac", ratio(reg("det_timeout"), phases), "ratio")
	l.add("detectors.ro_transitions", reg("ro_transition"), "count")
	l.add("dram.bus_util", ratio(bus, float64(n)), "ratio")
	for _, name := range []string{"faults", "replays", "evictions", "thrash", "writebacks_dirty", "meta_cycles", "batches", "pref_late"} {
		l.add("uvm."+name, reg("uvm_"+name), "count")
	}
	l.add("uvm.bytes_in_mb", reg("uvm_bytes_in")/mib, "MiB")
	l.add("uvm.bytes_out_mb", reg("uvm_bytes_out")/mib, "MiB")
	l.add("uvm.pref_useful_frac", ratio(reg("uvm_pref_useful"), reg("uvm_prefetches")), "ratio")
	var snap int
	for _, r := range m.passes[0].runs {
		snap += r.snapBytes
	}
	l.add("snapshot.bytes_mb", float64(snap)/mib, "MiB")
}
