package shmgpu_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"shmgpu"
	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/testutil"
	"shmgpu/internal/workload"
)

// referenceCells is the cross-commit reference corpus: quick cells whose
// artifact hashes are pinned in referenceHashes. The cells cover no MEE,
// full SHM machinery, cross-partition metadata (Naive, Common_ctr), every-
// cycle ticking, and the host tier at 0.5x oversubscription with 4 KiB
// pages.
var referenceCells = []struct {
	name     string
	workload string
	scheme   string
	seed     int64
	cfg      func() shmgpu.Config
}{
	{"atax_Baseline", "atax", "Baseline", 1, shmgpu.QuickConfig},
	{"atax_SHM", "atax", "SHM", 1, shmgpu.QuickConfig},
	{"lbm_Naive", "lbm", "Naive", 2, shmgpu.QuickConfig},
	{"mvt_Common_ctr", "mvt", "Common_ctr", 4, shmgpu.QuickConfig},
	{"bfs_SHM_everycycle", "bfs", "SHM", 2, func() shmgpu.Config {
		cfg := shmgpu.QuickConfig()
		cfg.DisableFastForward = true
		return cfg
	}},
	{"atax_SHM_oversub0.5_4KiB", "atax", "SHM", 1, func() shmgpu.Config {
		cfg := oversubQuickConfig(0.5)
		cfg.UVMPageBytes = 4 << 10
		return cfg
	}},
}

// referenceHashes holds, per cell, the SHA-256 of the rendered Result
// line, the stats snapshot and the telemetry JSONL stream (in that
// order). The table pins the simulator's observable output across
// commits: any change to the tick engine that moves a single simulated
// byte fails here, whichever engine configuration produced it.
//
// A deliberate model change re-records the table. Regenerate with
//
//	go test -run TestReferenceCorpus -v .
//
// and paste the printed `reference row:` lines over the entries below.
var referenceHashes = map[string][3]string{
	"atax_Baseline":            {"7f6956e36fe757a74b08f75d10dc75307c04672f36ebc0b8d6aaf14421dbbb8e", "10969a84a2a300aeebe3d1bb505f27c57e6b3040a1895a86bdac8faea47f92e0", "52c1b88049cbd2d211bd287e641a9679b9b0177dd8e466b89d7c50957356a5e8"},
	"atax_SHM":                 {"bbe0856eef76147ab3f994618743518a1b12e9aa1a9a8aa30e9e6361274f7538", "61a03967ab1512827c58d4231670abc49854b37d5aa394babcc3e79f64bbf9cb", "8f98abbcd969510bc975b4c1f2b8a31a848e70a727cf9e4401de8ecd9ee24eae"},
	"lbm_Naive":                {"59e3c6ea600388910362b28e9591129818dbe3ed2df1c8253b3fe8c809d3a691", "f524d4aa2d71741331481cc94c0c966b1e553bc175bcbeb68ac9b72209103dbc", "4a7cfbf452c026fcee2e23fee6d1e3273066911eaef834ceb98984da39e7ddf2"},
	"mvt_Common_ctr":           {"7e687fd3b635227efc3867f03241e2706680c79479e0e7e9b8aff4b438115ddd", "3d98d7e2dd41ca9e77ffef929c47b27632b3fff26ad7b8e7841617cc6a348fa5", "2c9a4f376a87bc67ea1f6b758fe60b62a7cf0d46f96ca8d1744c28691b49a108"},
	"bfs_SHM_everycycle":       {"1f89456d39094263646e788dea8392c4ba942ae771257599b9d24ceb343777a8", "3f208d0b60dcd2151c66825b07432909bea324671d1874043bee4fecdf99ab24", "7ea761e3e45ed03ce0e3830a3a06dfb29bc7b857a34658d8092707f544974023"},
	"atax_SHM_oversub0.5_4KiB": {"c114e6539f4aabcbf910d78c939dead1bc7398eced67f1f7c88ed5b332eb0754", "13e613761ffa4e6acc14a37c48ca2413f1864c09ef62d5c3aa44b70534c57d4d", "33648a3521831ff8f276b6dea40a1e737e214e4f1cc34db801f9adcc9ffcfeb7"},
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestReferenceCorpus runs every reference cell and compares its artifact
// hashes against the recorded table. The CI determinism job also runs it
// under SHMGPU_CHECK=1: the armed sanitizer must not move a byte either.
func TestReferenceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	for _, c := range referenceCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := testutil.RunCellCfg(t, c.cfg(), c.workload, c.scheme, c.seed)
			got := [3]string{sha([]byte(a.Result)), sha(a.Snapshot), sha(a.JSONL)}
			t.Logf("reference row: %q: {%q, %q, %q},", c.name, got[0], got[1], got[2])
			want, ok := referenceHashes[c.name]
			if !ok {
				t.Fatalf("no recorded hashes for cell %s", c.name)
			}
			for i, part := range []string{"Result", "stats snapshot", "telemetry JSONL"} {
				if got[i] != want[i] {
					t.Errorf("%s hash %s, recorded %s (Result: %s)", part, got[i], want[i], a.Result)
				}
			}
		})
	}
}

// formatCells is the snapshot format-identity corpus: warm cells whose
// System.SaveState payload hashes are pinned in formatHashes. Between
// them they reach every serializer branch — MEE off, a capturing
// collector, physical-address metadata with diverged pages, the oracle
// detector maps, the L2 victim path, the accuracy harness, and the host
// tier under both prefetch policies and page geometries.
var formatCells = []struct {
	name     string
	workload string
	scheme   string
	warm     uint64
	accuracy bool
	tele     *shmgpu.TelemetryConfig
	cfg      func() shmgpu.Config
}{
	{"atax_Baseline", "atax", "Baseline", 20000, false, nil, shmgpu.QuickConfig},
	{"atax_SHM_collector", "atax", "SHM", 20000, false,
		&shmgpu.TelemetryConfig{SampleInterval: 1000, CaptureEvents: true}, shmgpu.QuickConfig},
	{"bfs_Common_ctr", "bfs", "Common_ctr", 20000, false, nil, shmgpu.QuickConfig},
	{"atax_SHM_upper_bound", "atax", "SHM_upper_bound", 20000, false, nil, shmgpu.QuickConfig},
	{"mvt_SHM_vL2", "mvt", "SHM_vL2", 20000, false, nil, shmgpu.QuickConfig},
	{"atax_SHM_accuracy", "atax", "SHM", 20000, true, nil, shmgpu.QuickConfig},
	{"atax_SHM_tier_stream", "atax", "SHM", 20000, false, nil, func() shmgpu.Config {
		cfg := oversubQuickConfig(0.5)
		cfg.UVMPageBytes = 4 << 10
		cfg.UVMPrefetch = "stream"
		return cfg
	}},
	{"atax_SHM_tier_large_stride", "atax", "SHM", 3000, false, nil, func() shmgpu.Config {
		cfg := oversubQuickConfig(0.5)
		cfg.UVMLargePages = true
		cfg.UVMPrefetch = "stride"
		return cfg
	}},
}

// formatHashes holds, per format cell, the SHA-256 of its warm payload.
// The table pins the snapshot byte format itself: a serializer change
// that reorders, adds or drops one field fails here even when restored
// runs stay equivalent. A deliberate format change bumps
// snapshot.FormatVersion and re-records the table with
//
//	go test -run TestSnapshotFormatCorpus -v .
//
// pasting the printed `format row:` lines over the entries below.
var formatHashes = map[string]string{
	"atax_Baseline":              "d582ae2338cf4ff40b6e73dce011445f3ea57c041fc34cbeeb97fa248749ae23",
	"atax_SHM_collector":         "22725ea54206ab5f47789dbdc2284897f84848ef77b22ed40d37d1983a2c7661",
	"bfs_Common_ctr":             "09d6aa94847c1967d8be65a874fb4d7258b3083b9895de78fa4cda6a0a01938c",
	"atax_SHM_upper_bound":       "320f6d6f5a3ec3399862eef60eb36cb2342ef7bcba33daf18fb7dee893a13d00",
	"mvt_SHM_vL2":                "82d1e5af7b2c7c5f3148f12ddb1de02a81d2d15b70e9225ea50f5ccf24c3b2d3",
	"atax_SHM_accuracy":          "c309ecafc7c2c5647c31e2166c87ffc57ff592eccd17284dbbea185d3587a4e7",
	"atax_SHM_tier_stream":       "ac028b428e4bb38c990f8eb037bba6b271b8154e25cbc7b6195826dcf7fdbd88",
	"atax_SHM_tier_large_stride": "7fe91ef115c65ad4d4fd00ebe79a941b15a9760079aa0e0fe2e1d69a980d4167",
}

// formatSystem builds a fresh system (plus workload and, when the cell
// asks for one, an attached collector) for format cell i.
func formatSystem(t testing.TB, i int) (*gpu.System, *workload.Bench) {
	t.Helper()
	c := formatCells[i]
	sch, err := scheme.ByName(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.ByNameSeeded(c.workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := sch.Options
	opts.TrackAccuracy = c.accuracy
	sys := gpu.NewSystem(c.cfg(), opts)
	if c.tele != nil {
		sys.AttachTelemetry(telemetry.New(*c.tele))
	}
	return sys, bench
}

// formatPayload warms format cell i and returns its SaveState payload.
func formatPayload(t testing.TB, i int) []byte {
	t.Helper()
	sys, bench := formatSystem(t, i)
	defer sys.Shutdown()
	if _, done := sys.RunUntil(bench, formatCells[i].warm); done {
		t.Fatalf("%s finished before cycle %d; nothing to capture", formatCells[i].name, formatCells[i].warm)
	}
	e := snapshot.NewEncoder()
	if err := sys.SaveState(e, bench); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

// TestSnapshotFormatCorpus pins the payload hash of every format cell and
// checks that each payload survives save(load(blob)) byte-identically.
func TestSnapshotFormatCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("warms full simulations; skipped in -short")
	}
	if snapshot.FormatVersion != 2 {
		t.Fatalf("FormatVersion %d; the recorded hashes are for version 2", snapshot.FormatVersion)
	}
	for i, c := range formatCells {
		i, c := i, c
		t.Run(c.name, func(t *testing.T) {
			blob := formatPayload(t, i)
			got := sha(blob)
			t.Logf("format row: %q: %q,", c.name, got)
			if want, ok := formatHashes[c.name]; !ok {
				t.Errorf("no recorded hash for cell %s", c.name)
			} else if got != want {
				t.Errorf("payload hash %s, recorded %s (%d bytes)", got, want, len(blob))
			}

			sys, bench := formatSystem(t, i)
			defer sys.Shutdown()
			if err := sys.LoadState(snapshot.NewDecoder(blob), bench); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			e := snapshot.NewEncoder()
			if err := sys.SaveState(e, bench); err != nil {
				t.Fatalf("SaveState after LoadState: %v", err)
			}
			if !bytes.Equal(e.Data(), blob) {
				t.Errorf("save(load(blob)) differs from blob (%d vs %d bytes)", len(e.Data()), len(blob))
			}
		})
	}
}

// TestSnapshotTruncationRejected loads every cut prefix of two warm
// payloads into a fresh system: each load must fail with an error, never
// succeed and never panic. Cuts are dense over the header sections, then
// strided through the bulk of the payload, and always include the last
// byte.
func TestSnapshotTruncationRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of restores; skipped in -short")
	}
	for _, name := range []string{"atax_SHM_collector", "atax_SHM_tier_stream"} {
		i := formatIndex(t, name)
		t.Run(name, func(t *testing.T) {
			blob := formatPayload(t, i)
			var cuts []int
			for n := 0; n < len(blob); {
				cuts = append(cuts, n)
				switch {
				case n < 1024:
					n++
				default:
					n += 1021
				}
			}
			cuts = append(cuts, len(blob)-1)
			for _, n := range cuts {
				sys, bench := formatSystem(t, i)
				err, p := loadNoPanic(sys, bench, blob[:n])
				sys.Shutdown()
				if p != nil {
					t.Fatalf("LoadState of a %d-byte prefix (of %d) panicked: %v", n, len(blob), p)
				}
				if err == nil {
					t.Fatalf("LoadState of a %d-byte prefix (of %d) succeeded", n, len(blob))
				}
			}
			t.Logf("%d cuts of a %d-byte payload all rejected", len(cuts), len(blob))
		})
	}
}

func formatIndex(t *testing.T, name string) int {
	for i, c := range formatCells {
		if c.name == name {
			return i
		}
	}
	t.Fatalf("no format cell %s", name)
	return -1
}

// loadNoPanic runs LoadState, reporting a panic separately from an
// ordinary load error.
func loadNoPanic(sys *gpu.System, bench *workload.Bench, payload []byte) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return sys.LoadState(snapshot.NewDecoder(payload), bench), nil
}
