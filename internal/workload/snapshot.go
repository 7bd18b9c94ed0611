package workload

import (
	"fmt"
	"hash/fnv"

	"shmgpu/internal/snapshot"
)

// Checkpoint/restore for benchmarks and their warp programs. Restore
// protocol (driven by gpu.System): the target Bench is freshly built from
// the same spec; System calls NewWarp for every warp in deterministic
// order and immediately restores each program's state, then restores the
// Bench state last — which overwrites the frontier that those NewWarp calls
// populated with the captured one. Cold path only.

// specFingerprint hashes the full spec (including the seed and every
// buffer) plus the grid, so a snapshot can only be restored into a
// benchmark that generates the identical instruction streams.
func (b *Bench) specFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|grid=%dx%d", b.spec, b.sms, b.warps)
	return h.Sum64()
}

// WalkState implements gpu.StatefulWorkload: the spec fingerprint plus
// the mutable pacing state (everything else in Bench is immutable layout
// derived from the spec).
func (b *Bench) WalkState(s *snapshot.State) {
	s.Match("workload "+b.spec.BenchName+" spec/seed/grid fingerprint", b.specFingerprint())
	s.Int(&b.frontierKernel)
	has := b.frontier != nil
	s.Bool(&has)
	if !has {
		b.frontier = nil
		return
	}
	if s.Loading() {
		b.frontier = &frontierState{}
	}
	f := b.frontier
	snapshot.Slice(s, &f.lanes, func(s *snapshot.State, l *frontierLane) {
		snapshot.Slice(s, &l.counts, (*snapshot.State).Int)
		s.Int(&l.min)
		s.Int(&l.warps)
		if s.Loading() && (l.min < 0 || l.min >= len(l.counts) && len(l.counts) > 0) {
			s.Failf("workload %s: frontier lane min %d out of range", b.spec.BenchName, l.min)
		}
	})
	s.Int(&f.frozen)
	s.Bool(&f.synced)
}

// WalkState implements gpu.StatefulWarpProgram: the issue position, the
// per-buffer cursors, and the RNG draw count. secBuf is scratch (only
// valid between a generator call and the SM consuming the sectors, never
// at a cycle boundary) and bench/warpIdx/lane/total are rebuilt by
// NewWarp. Loading expects a program freshly created by NewWarp and
// fast-forwards its deterministic RNG to the captured draw count.
func (p *program) WalkState(s *snapshot.State) {
	s.Int(&p.issued)
	s.Match("warp cursors", len(p.cursors))
	for i := range p.cursors {
		s.U64((*uint64)(&p.cursors[i]))
	}
	draws := p.rngSrc.n
	s.U64(&draws)
	if !s.Loading() {
		return
	}
	// Restoring replays every draw, so an implausible count must fail
	// before the replay instead of spinning on it. The bound doubles the
	// generators' maximum to leave room for rejection-sampling redraws.
	if total := p.bench.spec.MemInstsPerWarp; p.issued < 0 || p.issued > total {
		s.Failf("workload: warp %d issued %d of %d instructions", p.warpIdx, p.issued, total)
		return
	}
	if limit := 2 * maxDrawsPerInst * uint64(p.issued); draws > limit {
		s.Failf("workload: warp %d claims %d RNG draws for %d instructions (at most %d)",
			p.warpIdx, draws, p.issued, limit)
		return
	}
	if p.rngSrc.n > draws {
		s.Failf("workload: warp %d RNG already at draw %d, snapshot wants %d (program not fresh)",
			p.warpIdx, p.rngSrc.n, draws)
		return
	}
	p.rngSrc.skipTo(draws)
}
