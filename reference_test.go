package shmgpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"shmgpu"
	"shmgpu/internal/testutil"
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
