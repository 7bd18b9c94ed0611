package shmgpu_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"shmgpu"
	"shmgpu/internal/testutil"
)

// forkSpecsFor builds the child variants one warmed parent fans out to:
// the one-shard engine in both fast-forward modes plus the cell's shard
// counts (fast-forward on, matching the parallel corpus).
func forkSpecsFor(shards []int) []shmgpu.ForkSpec {
	specs := []shmgpu.ForkSpec{
		{Shards: 0, DisableFastForward: false},
		{Shards: 0, DisableFastForward: true},
	}
	for _, s := range shards {
		specs = append(specs, shmgpu.ForkSpec{Shards: s, DisableFastForward: false})
	}
	return specs
}

// TestForkMatchesScratch is the checkpoint/fork equivalence gate: over the
// parallel corpus's cells, a run forked from a warmed parent's snapshot
// must be byte-indistinguishable from the same configuration run from
// scratch — identical Result fields, stats-registry snapshot, and
// telemetry JSONL — for every child variant, with the fork point both
// early (a warmup boundary) and deep in steady state. Any simulator state
// the snapshot fails to capture, or captures approximately, lands here.
func TestForkMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []struct {
		workload string
		scheme   string
		seed     int64
		shards   []int
	}{
		{"atax", "Baseline", 1, []int{1, 4}},
		{"atax", "SHM", 1, []int{4}},
		{"bfs", "SHM", 2, []int{2}},
		{"fdtd2d", "SHM_readOnly", 3, []int{4}},
		{"mvt", "Common_ctr", 4, []int{4}},
	}
	for _, c := range cells {
		c := c
		// One probe run sizes the fork points; its cycle count is
		// deterministic, so the fractions below land at reproducible spots.
		probe, err := shmgpu.RunSeeded(shmgpu.QuickConfig(), c.workload, c.scheme, c.seed)
		if err != nil {
			t.Fatalf("probe run %s/%s: %v", c.workload, c.scheme, err)
		}
		warmPoints := []struct {
			name string
			at   uint64
		}{
			{"warmup", probe.Cycles / 8},
			{"steady", probe.Cycles / 2},
		}
		specs := forkSpecsFor(c.shards)
		for _, wp := range warmPoints {
			wp := wp
			if wp.at == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s_%s_seed%d_%s", c.workload, c.scheme, c.seed, wp.name), func(t *testing.T) {
				results, cols, err := shmgpu.RunForkedSeeded(shmgpu.QuickConfig(), c.workload, c.scheme, c.seed, wp.at, testutil.QuickTelemetry(), specs)
				if err != nil {
					t.Fatalf("forked run: %v", err)
				}
				for i, spec := range specs {
					forked := testutil.Collect(t, shmgpu.QuickConfig(), c.seed, results[i], cols[i])
					scratch := testutil.RunCell(t, c.workload, c.scheme, c.seed, spec.Shards, spec.DisableFastForward)
					label := fmt.Sprintf("forked shards=%d ff=%v", spec.Shards, !spec.DisableFastForward)
					testutil.AssertEqual(t, label, forked, "scratch", scratch)
				}
			})
		}
	}
}

// TestForkMatchesScratchOversubscribed pins the snapshot engine against
// the UVM host tier: forking a warmed oversubscribed parent — including
// at an early point where the migration ring is typically mid-transfer —
// must reproduce the scratch run byte-for-byte. (Deterministic coverage
// of serializing a non-empty migration ring lives in the hostmem unit
// tests; here the fork points sample whatever in-flight state the real
// run has at those cycles.) The stream-prefetch variant forks with
// migration-ahead state live — fault-stream stride tables, prefetch
// page states, eager-eviction stamps, and possibly a multi-page batch
// mid-transfer — all of which must survive the snapshot round-trip.
func TestForkMatchesScratchOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	for _, prefetch := range []string{"", "stream"} {
		prefetch := prefetch
		name := "demand"
		if prefetch != "" {
			name = prefetch
		}
		t.Run(name, func(t *testing.T) {
			cfg := oversubQuickConfig(0.5)
			cfg.UVMPrefetch = prefetch
			probe, err := shmgpu.RunSeeded(cfg, "atax", "SHM", 1)
			if err != nil {
				t.Fatalf("probe run: %v", err)
			}
			specs := forkSpecsFor([]int{4})
			for _, frac := range []struct {
				name string
				at   uint64
			}{
				{"early", probe.Cycles / 16},
				{"steady", probe.Cycles / 2},
			} {
				frac := frac
				if frac.at == 0 {
					continue
				}
				t.Run(frac.name, func(t *testing.T) {
					results, cols, err := shmgpu.RunForkedSeeded(cfg, "atax", "SHM", 1, frac.at, testutil.QuickTelemetry(), specs)
					if err != nil {
						t.Fatalf("forked run: %v", err)
					}
					for i, spec := range specs {
						scfg := cfg
						scfg.ParallelShards = spec.Shards
						scfg.DisableFastForward = spec.DisableFastForward
						forked := testutil.Collect(t, cfg, 1, results[i], cols[i])
						scratch := testutil.RunCellCfg(t, scfg, "atax", "SHM", 1)
						label := fmt.Sprintf("forked shards=%d ff=%v", spec.Shards, !spec.DisableFastForward)
						testutil.AssertEqual(t, label, forked, "scratch", scratch)
					}
				})
			}
		})
	}
}

// TestSnapshotFileRoundTrip pins the file-based warm/restore path shmsim
// exposes: a snapshot written to disk restores into a byte-identical
// completion, and restoring under a mismatched scheme or seed is rejected
// by the configuration fingerprint rather than silently diverging.
func TestSnapshotFileRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfg := shmgpu.QuickConfig()
	tcfg := testutil.QuickTelemetry()
	probe, err := shmgpu.RunSeeded(cfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.snap")
	written, err := shmgpu.WriteSnapshot(cfg, "atax", "SHM", 1, probe.Cycles/2, tcfg, path)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if !written {
		t.Fatalf("workload finished before cycle %d; nothing captured", probe.Cycles/2)
	}

	res, col, err := shmgpu.RestoreRun(cfg, "atax", "SHM", 1, tcfg, path)
	if err != nil {
		t.Fatalf("RestoreRun: %v", err)
	}
	restored := testutil.Collect(t, cfg, 1, res, col)
	scratch := testutil.RunCell(t, "atax", "SHM", 1, 0, false)
	testutil.AssertEqual(t, "restored", restored, "scratch", scratch)

	if _, _, err := shmgpu.RestoreRun(cfg, "atax", "PSSM", 1, tcfg, path); err == nil {
		t.Error("restoring under a different scheme succeeded; want fingerprint rejection")
	}
	if _, _, err := shmgpu.RestoreRun(cfg, "atax", "SHM", 99, tcfg, path); err == nil {
		t.Error("restoring under a different seed succeeded; want fingerprint rejection")
	}
	bigger := cfg
	bigger.SMs++
	if _, _, err := shmgpu.RestoreRun(bigger, "atax", "SHM", 1, tcfg, path); err == nil {
		t.Error("restoring under a different GPU config succeeded; want fingerprint rejection")
	}
}

// TestSnapshotRejectsPageSizeMismatch extends the fingerprint gate to the
// UVM axis: a snapshot taken under one page size (or oversubscription
// ratio) must not restore under another — residency bitmaps and the
// migration ring are meaningless across page geometries.
func TestSnapshotRejectsPageSizeMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfg := oversubQuickConfig(0.5)
	tcfg := testutil.QuickTelemetry()
	probe, err := shmgpu.RunSeeded(cfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "uvm.snap")
	written, err := shmgpu.WriteSnapshot(cfg, "atax", "SHM", 1, probe.Cycles/2, tcfg, path)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if !written {
		t.Fatalf("workload finished before cycle %d; nothing captured", probe.Cycles/2)
	}

	smaller := cfg
	smaller.UVMPageBytes = 32 << 10
	if _, _, err := shmgpu.RestoreRun(smaller, "atax", "SHM", 1, tcfg, path); err == nil {
		t.Error("restoring under a different page size succeeded; want fingerprint rejection")
	}
	tighter := cfg
	tighter.OversubRatio = 0.25
	if _, _, err := shmgpu.RestoreRun(tighter, "atax", "SHM", 1, tcfg, path); err == nil {
		t.Error("restoring under a different oversubscription ratio succeeded; want fingerprint rejection")
	}

	// Sanity: the matching configuration still restores and completes
	// byte-identically to scratch.
	res, col, err := shmgpu.RestoreRun(cfg, "atax", "SHM", 1, tcfg, path)
	if err != nil {
		t.Fatalf("RestoreRun: %v", err)
	}
	restored := testutil.Collect(t, cfg, 1, res, col)
	scratch := testutil.RunCellCfg(t, cfg, "atax", "SHM", 1)
	testutil.AssertEqual(t, "restored", restored, "scratch", scratch)
}
