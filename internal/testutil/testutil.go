// Package testutil is the byte-compare harness shared by the
// equivalence test corpora (fast-forward, parallel shards,
// checkpoint/fork, UVM migration): it runs one instrumented cell and
// renders everything observable about it through the shared renderer
// (experiments.Render) into a directly diffable Artifacts value. Two
// runs are "byte-identical" in the repo's sense exactly when their
// Artifacts compare equal.
package testutil

import (
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
)

// Artifacts is everything observable about one run: the rendered Result
// fields, the marshaled stats registry, and the JSONL telemetry stream.
type Artifacts = experiments.Artifacts

// manifestTool is the fixed Manifest.Tool the corpora stamp their JSONL
// with; it predates the extraction of this package and stays unchanged
// so streams remain comparable across the corpora.
const manifestTool = "fastforward-test"

// QuickTelemetry is the collector configuration every corpus runs
// under: a sampled timeline plus captured lifecycle events, so the
// byte-compare covers counters, histograms, samples, and the trace.
func QuickTelemetry() shmgpu.TelemetryConfig {
	return shmgpu.TelemetryConfig{SampleInterval: 500, CaptureEvents: true}
}

// Collect renders one finished run (result + collector) into its
// byte-comparable artifact set. cfg must be the configuration the run
// executed under (it stamps the JSONL manifest).
func Collect(t testing.TB, cfg shmgpu.Config, seed int64, res shmgpu.Result, col *shmgpu.Collector) Artifacts {
	t.Helper()
	a, err := experiments.Render(res, col, cfg, manifestTool, seed)
	if err != nil {
		t.Fatalf("rendering artifacts: %v", err)
	}
	return a
}

// RunCellCfg executes one instrumented cell under an explicit
// configuration and returns its artifact set. The corpora that sweep
// UVM oversubscription (or any other config axis) enter here.
func RunCellCfg(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) Artifacts {
	t.Helper()
	res, col, err := shmgpu.RunObservedSeeded(cfg, workload, scheme, seed, QuickTelemetry(), nil)
	if err != nil {
		t.Fatalf("run %s/%s seed %d (shards=%d disableFF=%v): %v",
			workload, scheme, seed, cfg.ParallelShards, cfg.DisableFastForward, err)
	}
	return Collect(t, cfg, seed, res, col)
}

// RunCell executes one quick-config cell with the given shard count
// (0 = one shard, inline) and fast-forward mode — the shared artifact
// collector behind the fast-forward, parallel, and fork corpora.
func RunCell(t testing.TB, workload, scheme string, seed int64, shards int, disableFF bool) Artifacts {
	t.Helper()
	cfg := shmgpu.QuickConfig()
	cfg.DisableFastForward = disableFF
	cfg.ParallelShards = shards
	return RunCellCfg(t, cfg, workload, scheme, seed)
}

// AssertEqual fails the test with a part-by-part diff when the two
// artifact sets differ. aName/bName label the sides in the failure
// output ("fast-forward" vs "every-cycle", "forked" vs "scratch", ...).
func AssertEqual(t testing.TB, aName string, a Artifacts, bName string, b Artifacts) {
	t.Helper()
	for _, d := range a.Diff(aName, b, bName) {
		t.Error(d)
	}
}
