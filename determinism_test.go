package shmgpu_test

import (
	"bytes"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
)

// runOnce runs atax/SHM at seed and renders everything a run exports that
// must be reproducible. The rendered manifest carries no wall-clock field,
// so the JSONL comparison tests the simulation stream, not the timestamps
// around it.
func runOnce(t *testing.T, seed int64) experiments.Artifacts {
	t.Helper()
	cfg := shmgpu.QuickConfig()
	tcfg := shmgpu.TelemetryConfig{SampleInterval: 1000, CaptureEvents: true}
	res, col, err := shmgpu.RunObservedSeeded(cfg, "atax", "SHM", seed, tcfg, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	a, err := experiments.Render(res, col, cfg, "determinism-test", seed)
	if err != nil {
		t.Fatalf("rendering artifacts: %v", err)
	}
	return a
}

// TestRunsAreByteIdentical is the determinism regression gate: two
// back-to-back runs of the same (workload, scheme, seed) must produce
// byte-identical registry snapshots and byte-identical JSONL export
// streams. Any nondeterminism source that slips past the static checks
// (shmlint's nodeterminism analyzer) lands here.
func TestRunsAreByteIdentical(t *testing.T) {
	first := runOnce(t, 424242)
	second := runOnce(t, 424242)
	for _, d := range first.Diff("first", second, "second") {
		t.Error(d)
	}
}

// TestSeedChangesTheRun asserts the seed actually threads through to the
// warp programs: two different seeds must not produce the same simulation.
func TestSeedChangesTheRun(t *testing.T) {
	a := runOnce(t, 7)
	b := runOnce(t, 8)
	if a.Result == b.Result && bytes.Equal(a.Snapshot, b.Snapshot) {
		t.Errorf("seed 7 and seed 8 produced identical runs (%s, same counters); seed is not reaching the workload",
			a.Result)
	}
}
