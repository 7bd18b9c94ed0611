package experiments

import (
	"fmt"

	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/telemetry"
)

// Fork-based sweeps: warm one parent run to a cycle boundary, capture its
// complete state once, and fork one child per execution variant from the
// snapshot instead of re-simulating the warmup for every cell. Children
// may vary exactly the knobs the equivalence corpora prove byte-neutral —
// the sharded tick engine and event-horizon fast-forward — so every
// forked child is byte-identical to the same variant run from scratch
// (the fork-equivalence fuzz oracle and TestForkMatchesScratch pin this).

// ForkSpec selects one child's execution strategy.
type ForkSpec struct {
	// Shards is the child's ParallelShards (0 = sequential).
	Shards int
	// DisableFastForward forces the child to tick every cycle.
	DisableFastForward bool
}

func applyFork(cfg gpu.Config, spec ForkSpec) gpu.Config {
	cfg.ParallelShards = spec.Shards
	cfg.DisableFastForward = spec.DisableFastForward
	return cfg
}

// RunForkedSeeded runs (workload, scheme) under every spec, amortizing the
// first warmCycle cycles across the specs through one warmed parent. Each
// child gets its own fresh collector (config tcfg), exactly as if the run
// had been instrumented from scratch. When the whole workload finishes
// before warmCycle there is nothing to fork; every spec falls back to an
// ordinary from-scratch run, which is byte-identical by definition.
func RunForkedSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, warmCycle uint64, tcfg telemetry.Config, specs []ForkSpec) ([]gpu.Result, []*telemetry.Collector, error) {
	results := make([]gpu.Result, len(specs))
	cols := make([]*telemetry.Collector, len(specs))
	if len(specs) == 0 {
		return results, cols, nil
	}
	parent, err := instrumentedCell(cfg, wl, seed, sch, tcfg)
	if err != nil {
		return nil, nil, err
	}
	blob, err := parent.Warm(warmCycle)
	if err != nil {
		return nil, nil, err
	}
	for i, spec := range specs {
		child, err := instrumentedCell(applyFork(cfg, spec), wl, seed, sch, tcfg)
		if err != nil {
			return nil, nil, err
		}
		if blob == nil {
			results[i] = child.Run()
		} else if results[i], err = child.Resume(blob); err != nil {
			return nil, nil, err
		}
		cols[i] = child.Col
	}
	return results, cols, nil
}

// instrumentedCell is NewCell with a fresh collector of config tcfg: the
// snapshot embeds the collector's state, so a capturing run and every run
// restored from it are instrumented alike.
func instrumentedCell(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, tcfg telemetry.Config) (Cell, error) {
	c, err := NewCell(cfg, wl, seed, sch)
	c.Col = telemetry.New(tcfg)
	return c, err
}

// WriteSnapshotSeeded warms (workload, scheme) to warmCycle and writes the
// captured state to path (checksummed, version-stamped, atomically
// renamed into place — a killed writer never leaves a loadable file). It
// reports whether a snapshot was written: a workload that completes
// before warmCycle leaves nothing to capture.
func WriteSnapshotSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, warmCycle uint64, tcfg telemetry.Config, path string) (bool, error) {
	if warmCycle == 0 {
		return false, fmt.Errorf("experiments: snapshot cycle must be positive")
	}
	c, err := instrumentedCell(cfg, wl, seed, sch, tcfg)
	if err != nil {
		return false, err
	}
	blob, err := c.Warm(warmCycle)
	if err != nil || blob == nil {
		return false, err
	}
	if err := snapshot.WriteFile(path, blob); err != nil {
		return false, err
	}
	return true, nil
}

// RestoreRunSeeded loads a snapshot written by WriteSnapshotSeeded and
// resumes it to completion under cfg. The workload, scheme, seed, and
// collector configuration must match the capturing run (the snapshot's
// fingerprint and the collector's own config check reject mismatches);
// cfg may vary only the execution-strategy knobs.
func RestoreRunSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, tcfg telemetry.Config, path string) (gpu.Result, *telemetry.Collector, error) {
	blob, err := snapshot.ReadFile(path)
	if err != nil {
		return gpu.Result{}, nil, err
	}
	c, err := instrumentedCell(cfg, wl, seed, sch, tcfg)
	if err != nil {
		return gpu.Result{}, nil, err
	}
	res, err := c.Resume(blob)
	if err != nil {
		return gpu.Result{}, nil, err
	}
	return res, c.Col, nil
}
