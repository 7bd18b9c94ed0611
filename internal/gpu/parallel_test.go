package gpu

import (
	"fmt"
	"testing"

	"shmgpu/internal/invariant"
	"shmgpu/internal/secmem"
)

func TestShardRanges(t *testing.T) {
	for _, tc := range []struct{ n, s int }{
		{4, 1}, {4, 2}, {4, 4}, {4, 8}, {12, 3}, {12, 5}, {30, 8}, {1, 4},
	} {
		lo, hi := shardRanges(tc.n, tc.s)
		if len(lo) != tc.s || len(hi) != tc.s {
			t.Fatalf("shardRanges(%d,%d): %d ranges", tc.n, tc.s, len(lo))
		}
		covered := 0
		for k := 0; k < tc.s; k++ {
			if lo[k] > hi[k] {
				t.Fatalf("shardRanges(%d,%d): shard %d inverted [%d,%d)", tc.n, tc.s, k, lo[k], hi[k])
			}
			if k > 0 && lo[k] != hi[k-1] {
				t.Fatalf("shardRanges(%d,%d): gap between shard %d and %d", tc.n, tc.s, k-1, k)
			}
			covered += hi[k] - lo[k]
		}
		if lo[0] != 0 || hi[tc.s-1] != tc.n || covered != tc.n {
			t.Fatalf("shardRanges(%d,%d): covers %d units, lo=%v hi=%v", tc.n, tc.s, covered, lo, hi)
		}
	}
}

// parHarness builds a mid-launch system driving the fixedWorkload, with the
// engine started at the given ParallelShards.
func parHarness(t *testing.T, opts secmem.Options, shards int) *System {
	t.Helper()
	cfg := smallConfig()
	cfg.ParallelShards = shards
	wl := &fixedWorkload{bufBytes: 40 << 20, compute: 4, insts: 2_000}
	s := NewSystem(cfg, opts)
	s.applySetup(0, wl.Setup(0))
	for _, sm := range s.sms {
		sm.launch(0, wl)
	}
	s.startEngine()
	t.Cleanup(s.stopEngine)
	return s
}

// TestParallelTickLockstep drives an inline one-shard system and a sharded
// one through the same cycles and compares the crossbar response ring after
// every tick: identical entries in identical order is exactly the
// deterministic-exchange guarantee (outboxes appended phase-major,
// partition-ascending), and any divergence pinpoints the first cycle where
// the sharded interleaving differs from the inline one.
func TestParallelTickLockstep(t *testing.T) {
	opts := map[string]secmem.Options{
		"Baseline": {},
		"PSSM":     {Enabled: true, LocalMetadata: true, SectoredMetadata: true},
		"SHM": {Enabled: true, LocalMetadata: true, SectoredMetadata: true,
			ReadOnlyOpt: true, DualGranMAC: true},
	}
	for name, o := range opts {
		// 3 shards over 4 SMs and 12 partitions exercises uneven ranges;
		// 8 shards over 4 SMs exercises empty SM shards.
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				seq := parHarness(t, o, 0)
				par := parHarness(t, o, shards)
				if par.eng.shards != shards {
					t.Fatalf("engine runs %d shards, want %d", par.eng.shards, shards)
				}
				for now := uint64(0); now < 4000; now++ {
					seq.eng.tick(now)
					par.eng.tick(now)
					if seq.toSM.Len() != par.toSM.Len() {
						t.Fatalf("cycle %d: response ring length %d (inline) vs %d (sharded)",
							now, seq.toSM.Len(), par.toSM.Len())
					}
					for i := 0; i < seq.toSM.Len(); i++ {
						if *seq.toSM.At(i) != *par.toSM.At(i) {
							t.Fatalf("cycle %d: response ring entry %d diverges: %+v (inline) vs %+v (sharded)",
								now, i, *seq.toSM.At(i), *par.toSM.At(i))
						}
					}
				}
				if seq.smsFinished() != par.smsFinished() {
					t.Fatalf("completion state diverges: inline=%v sharded=%v", seq.smsFinished(), par.smsFinished())
				}
			})
		}
	}
}

// TestParallelGateFallsBackSequential pins the shard count the engine
// picks: configurations it cannot shard deterministically (or safely), and
// ParallelShards below 2, run one shard inline with no worker pool.
func TestParallelGateFallsBackSequential(t *testing.T) {
	check := func(t *testing.T, s *System, want int) {
		t.Helper()
		if s.eng.shards != want {
			t.Fatalf("engine runs %d shards, want %d", s.eng.shards, want)
		}
		if pooled := s.eng.pool != nil; pooled != (want > 1) {
			t.Fatalf("engine pooled=%v at %d shards", pooled, want)
		}
	}
	t.Run("non-local metadata", func(t *testing.T) {
		// Naive routes metadata across partitions.
		check(t, parHarness(t, secmem.Options{Enabled: true}, 4), 1)
	})
	t.Run("sanitizer armed", func(t *testing.T) {
		invariant.SetEnabled(true)
		defer invariant.SetEnabled(false)
		check(t, parHarness(t, secmem.Options{}, 4), 1)
	})
	t.Run("sequential default", func(t *testing.T) {
		check(t, parHarness(t, secmem.Options{}, 0), 1)
	})
	t.Run("one shard", func(t *testing.T) {
		check(t, parHarness(t, secmem.Options{}, 1), 1)
	})
	t.Run("four shards", func(t *testing.T) {
		check(t, parHarness(t, secmem.Options{}, 4), 4)
	})
}
