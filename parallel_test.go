package shmgpu_test

import (
	"fmt"
	"testing"

	"shmgpu/internal/testutil"
)

// TestParallelMatchesSequential is the shard-engine equivalence gate: over
// a corpus of (workload, scheme, seed) cells crossed with shard counts and
// both fast-forward modes, a sharded run must be indistinguishable from
// the one-shard reference — identical Result fields, an identical
// stats-registry snapshot, and a byte-identical telemetry JSONL stream.
// The corpus includes a scheme with cross-partition metadata
// (Common_ctr), which the locality gate must silently run at one shard —
// equality there pins the gate. The CI race job runs this test
// under -race, which is what turns "byte-identical" into "and no data
// races reached the detector either".
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []struct {
		workload string
		scheme   string
		seed     int64
		shards   []int
	}{
		// Schemes chosen as in TestFastForwardMatchesEveryCycle: no MEE,
		// full SHM machinery, RO-counter transitions, and the non-local
		// metadata mapping that exercises the locality gate.
		{"atax", "Baseline", 1, []int{1, 2, 4, 8}},
		{"atax", "SHM", 1, []int{2, 4, 8}},
		{"bfs", "SHM", 2, []int{2}},
		{"fdtd2d", "SHM_readOnly", 3, []int{4}},
		{"mvt", "Common_ctr", 4, []int{4}},
	}
	for _, c := range cells {
		for _, disableFF := range []bool{false, true} {
			// One one-shard reference per (cell, fast-forward mode) serves
			// every shard count — the reference is deterministic, so rerunning
			// it per shard count would only burn CI minutes.
			seq := testutil.RunCell(t, c.workload, c.scheme, c.seed, 0, disableFF)
			for _, shards := range c.shards {
				c, shards, disableFF := c, shards, disableFF
				t.Run(fmt.Sprintf("%s_%s_seed%d_shards%d_ff%v", c.workload, c.scheme, c.seed, shards, !disableFF), func(t *testing.T) {
					par := testutil.RunCell(t, c.workload, c.scheme, c.seed, shards, disableFF)
					testutil.AssertEqual(t, "sharded", par, "one shard", seq)
				})
			}
		}
	}
}

// TestParallelMatchesSequentialOversubscribed extends the shard gate to
// the UVM host tier: page faults, replays, migration completions, and
// the metadata teardown/rebuild they trigger all happen in the engine's
// sequential pre-phase (tier mutations only inside the SM-ordered drains
// and the pre-drain tier tick), so an oversubscribed sharded run must
// stay byte-identical to the one-shard reference. The CI uvm-smoke job runs
// this under -race, which also proves the tier is never touched
// concurrently.
func TestParallelMatchesSequentialOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []struct {
		workload string
		scheme   string
		seed     int64
		ratio    float64
		prefetch string
	}{
		{"atax", "Baseline", 1, 0.5, ""},
		{"atax", "SHM", 1, 0.5, ""},
		{"bfs", "SHM", 2, 0.75, ""},
		// Migration-ahead cells: prefetch decisions, batch coalescing,
		// and eager evictions are made during the sequential tier tick,
		// so sharding must not reorder them.
		{"atax", "SHM", 1, 0.5, "stride"},
		{"atax", "SHM", 1, 0.5, "stream"},
	}
	for _, c := range cells {
		cfg := oversubQuickConfig(c.ratio)
		cfg.UVMPrefetch = c.prefetch
		seq := testutil.RunCellCfg(t, cfg, c.workload, c.scheme, c.seed)
		for _, shards := range []int{1, 4} {
			c, shards := c, shards
			name := fmt.Sprintf("%s_%s_ratio%.2f_shards%d", c.workload, c.scheme, c.ratio, shards)
			if c.prefetch != "" {
				name += "_" + c.prefetch
			}
			t.Run(name, func(t *testing.T) {
				pcfg := oversubQuickConfig(c.ratio)
				pcfg.UVMPrefetch = c.prefetch
				pcfg.ParallelShards = shards
				par := testutil.RunCellCfg(t, pcfg, c.workload, c.scheme, c.seed)
				testutil.AssertEqual(t, "sharded", par, "one shard", seq)
			})
		}
	}
}
