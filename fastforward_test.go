package shmgpu_test

import (
	"fmt"
	"testing"

	"shmgpu/internal/testutil"
)

// runMode executes one (workload, scheme, seed) cell with fast-forward either
// enabled (the default) or disabled (reference every-cycle ticking).
func runMode(t *testing.T, workload, scheme string, seed int64, disableFF bool) testutil.Artifacts {
	t.Helper()
	return testutil.RunCell(t, workload, scheme, seed, 0, disableFF)
}

// TestFastForwardMatchesEveryCycle is the event-horizon equivalence gate:
// over a corpus of (workload, scheme, seed) cells, a run with event-horizon
// cycle skipping must be indistinguishable from the every-cycle reference —
// identical Result fields, an identical stats-registry snapshot, and a
// byte-identical telemetry JSONL stream (events, histograms, and the sampled
// timeline included). Any component whose nextEvent under-reports (ticking
// earlier would have had an effect) or whose skipped ticks are not no-ops
// lands here.
func TestFastForwardMatchesEveryCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []struct {
		workload string
		scheme   string
		seed     int64
	}{
		// Schemes chosen to cover every mechanism the horizon must model:
		// no MEE at all, full metadata traffic, sectored+local metadata,
		// RO-counter transitions, dual-granularity MACs with MAT trackers,
		// and the combined SHM design.
		{"atax", "Baseline", 1},
		{"atax", "Naive", 1},
		{"atax", "PSSM", 1},
		{"atax", "SHM", 1},
		{"bfs", "SHM", 2},
		{"fdtd2d", "SHM_readOnly", 3},
		{"mvt", "Common_ctr", 4},
		{"streamcluster", "SHM", 5},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s_%s_seed%d", c.workload, c.scheme, c.seed), func(t *testing.T) {
			ff := runMode(t, c.workload, c.scheme, c.seed, false)
			ref := runMode(t, c.workload, c.scheme, c.seed, true)
			testutil.AssertEqual(t, "fast-forward", ff, "every-cycle", ref)
		})
	}
}

// TestFastForwardMatchesEveryCycleOversubscribed extends the horizon gate
// to the UVM host tier: with the working set oversubscribed, in-flight
// page migrations join the event horizon (hostmem.Tier.NextEvent) and the
// fault/replay retries must land on identical cycles in both modes. The
// prefetch cells additionally pin migration-ahead state — fault streams,
// batched transfers, eager evictions — against cycle skipping: a prefetch
// issued on a skipped-to cycle must land exactly where every-cycle
// ticking would put it.
//
// Fault-parked SMs let the horizon jump over their refused retries, and
// advanceCycle adds the skipped ones to uvm_replays — but only where the
// head's crossbar queue has room, since a full queue refuses the retry
// before it reaches the tier. The shallow-crossbar cell (depth 1) keeps
// queues full often enough to pin that rule.
func TestFastForwardMatchesEveryCycleOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []struct {
		scheme    string
		prefetch  string
		xbarDepth int
	}{
		{"Baseline", "", 0},
		{"SHM", "", 0},
		{"SHM", "stride", 0},
		{"SHM", "stream", 0},
		{"SHM", "", 1},
	}
	for _, c := range cells {
		c := c
		name := c.scheme
		if c.prefetch != "" {
			name += "_" + c.prefetch
		}
		if c.xbarDepth != 0 {
			name += fmt.Sprintf("_xbar%d", c.xbarDepth)
		}
		t.Run(name, func(t *testing.T) {
			cfg := oversubQuickConfig(0.5)
			cfg.UVMPrefetch = c.prefetch
			if c.xbarDepth != 0 {
				cfg.XbarQueueDepth = c.xbarDepth
			}
			ff := testutil.RunCellCfg(t, cfg, "atax", c.scheme, 1)
			cfg.DisableFastForward = true
			ref := testutil.RunCellCfg(t, cfg, "atax", c.scheme, 1)
			testutil.AssertEqual(t, "fast-forward", ff, "every-cycle", ref)
		})
	}
}
