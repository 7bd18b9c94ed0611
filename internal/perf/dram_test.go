package perf_test

import (
	"fmt"
	"testing"

	"shmgpu/internal/dram"
	"shmgpu/internal/memdef"
	"shmgpu/internal/perf"
)

// The DRAM tick microbenchmark pins the event-driven channel's idle cost.
// Most channel ticks change nothing: every queued request waits on a busy
// bank and no transfer completes. The retired scheduler rescanned the whole
// queue on every such tick; the wake gate returns before looking at any
// request, so a no-op tick must cost the same at any queue depth.

// newBlockedChannel returns a channel whose queue holds depth requests to
// one bank, each a different row, after the first has issued: the bank is
// busy until cycle RowCycles and nothing completes before then, so every
// Tick in (0, RowCycles) is a no-op.
func newBlockedChannel(depth int) *dram.Channel {
	cfg := dram.DefaultConfig()
	cfg.QueueDepth = depth
	ch := dram.NewChannel(cfg)
	rowStride := memdef.Addr(cfg.RowBytes * cfg.Banks)
	for i := 0; i < depth; i++ {
		ch.Enqueue(dram.Req{Local: memdef.Addr(i) * rowStride, Token: uint64(i)}, 0)
	}
	ch.Tick(0)
	return ch
}

var tickSink int

// noOpTicks runs n no-op ticks on ch.
func noOpTicks(ch *dram.Channel, n int) {
	for i := 0; i < n; i++ {
		tickSink += len(ch.Tick(1))
	}
}

// perNoOpTickNs measures one no-op tick at the given queue depth, best of
// reps so scheduler noise inflates neither side of the comparison.
func perNoOpTickNs(tb testing.TB, depth, ticks, reps int) (ns float64, allocs int64) {
	tb.Helper()
	ch := newBlockedChannel(depth)
	if ch.QueueLen() != depth-1 {
		tb.Fatalf("depth %d: %d requests queued after the first issue, want %d", depth, ch.QueueLen(), depth-1)
	}
	ns = -1
	for r := 0; r < reps; r++ {
		bm := perf.Measure(fmt.Sprintf("dram-noop/depth=%d", depth), 1, func() {
			noOpTicks(ch, ticks)
		})
		if per := float64(bm.NsPerOp) / float64(ticks); ns < 0 || per < ns {
			ns = per
		}
		allocs = bm.AllocsPerOp
	}
	return ns, allocs
}

// TestDRAMNoOpTickFlat is the scaling pin: a no-op tick at queue depth 64
// may cost at most twice one at depth 4. The old full-queue rescan made the
// deep tick an order of magnitude dearer.
func TestDRAMNoOpTickFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timed microbenchmark; skipped in -short")
	}
	const ticks = 1_000_000
	shallow, _ := perNoOpTickNs(t, 4, ticks, 3)
	deep, allocs := perNoOpTickNs(t, 64, ticks, 3)
	if shallow <= 0 {
		t.Fatalf("shallow measurement degenerate: %.2f ns/tick", shallow)
	}
	t.Logf("no-op tick: depth 4 %.2f ns, depth 64 %.2f ns (%.2f×)", shallow, deep, deep/shallow)
	if deep > 2*shallow {
		t.Errorf("no-op tick cost grew %.2f -> %.2f ns from depth 4 to 64; idle ticks are scanning the queue",
			shallow, deep)
	}
	if allocs != 0 {
		t.Errorf("no-op ticks allocated %d times per run, want 0", allocs)
	}
}

// BenchmarkDRAMTick reports per-tick cost of a channel at queue depths 4
// and 64, idle (every tick a no-op) and streaming (each op enqueues
// requests while the queue accepts them, then ticks one cycle, with a mix
// of row hits, row misses and bank conflicts).
func BenchmarkDRAMTick(b *testing.B) {
	for _, depth := range []int{4, 64} {
		depth := depth
		b.Run(fmt.Sprintf("noop/depth=%d", depth), func(b *testing.B) {
			ch := newBlockedChannel(depth)
			b.ReportAllocs()
			b.ResetTimer()
			noOpTicks(ch, b.N)
		})
		b.Run(fmt.Sprintf("stream/depth=%d", depth), func(b *testing.B) {
			cfg := dram.DefaultConfig()
			cfg.QueueDepth = depth
			ch := dram.NewChannel(cfg)
			// Stride through rows so consecutive requests alternate between
			// open-row hits and bank conflicts.
			const stride = 5 * memdef.PartitionStride
			addr, token := memdef.Addr(0), uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for cycle := uint64(0); cycle < uint64(b.N); cycle++ {
				for ch.CanAccept() {
					ch.Enqueue(dram.Req{Local: addr, Kind: memdef.Read, Token: token}, cycle)
					addr = (addr + stride) % (1 << 24)
					token++
				}
				tickSink += len(ch.Tick(cycle))
			}
		})
	}
}
