package gpu

import (
	"fmt"
	"hash/fnv"

	"shmgpu/internal/flatmap"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/snapshot"
)

// Checkpoint/restore for the whole System. The capture point is a paused
// RunUntil: the System sits at a kernel-interior tick boundary, which is
// the only place every component's transient state is fully observable
// (per-tick scratch like dram doneBuf or the MEE's response buffer is
// empty between ticks). The restore target must be a freshly built
// NewSystem whose configuration matches the snapshot's fingerprint up to
// the execution-strategy knobs (ParallelShards, DisableFastForward) that
// are proven byte-neutral by the equivalence corpus — forking one warmed
// parent across those knobs is the whole point. Cold path only.

// StatefulWorkload is the optional Workload extension checkpointing
// requires: the workload walks its cross-warp state (e.g. the pacing
// frontier), restoring it into a freshly built instance of the same spec.
type StatefulWorkload interface {
	Workload
	WalkState(*snapshot.State)
}

// StatefulWarpProgram is the per-warp analogue: restoring fast-forwards a
// freshly created program (wl.NewWarp) to the captured position.
type StatefulWarpProgram interface {
	WarpProgram
	WalkState(*snapshot.State)
}

// fingerprint hashes the configuration a snapshot is only valid for:
// everything in Config and the secure-memory design except the
// execution-strategy knobs children are allowed to vary. MEETune is a
// func (it would hash as a pointer), so the tuned partition-0 MEE config
// stands in for it.
func (s *System) fingerprint(wlName string) uint64 {
	c := s.cfg
	c.ParallelShards = 0
	c.DisableFastForward = false
	c.MEETune = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%s", c, s.opts, s.mees[0].Config(), wlName)
	return h.Sum64()
}

func (mi *MemInst) walkState(s *snapshot.State) {
	snapshot.Slice(s, &mi.Sectors, func(s *snapshot.State, a *memdef.Addr) {
		s.U64((*uint64)(a))
	})
	s.Bool(&mi.Write)
	s.U8((*uint8)(&mi.Space))
	s.Bool(&mi.Stall)
}

// walkState saves or restores an SM. Loading rebuilds the warp programs
// via wl.NewWarp for kernel and immediately fast-forwards each from the
// stream.
func (sm *SM) walkState(s *snapshot.State, wl Workload, kernel int) {
	s.Int(&sm.lastWarp)
	s.U64(&sm.Instructions)
	s.U64(&sm.Loads)
	s.U64(&sm.Stores)
	sm.l1.WalkState(s)
	flatmap.WalkMultiMap(s, &sm.l1Waiters, (*snapshot.State).I32)
	ringbuf.Walk(s, &sm.missQueue, func(s *snapshot.State, r *smRequest) {
		s.U64((*uint64)(&r.addr))
		s.Bool(&r.write)
		s.U8((*uint8)(&r.space))
		s.Int(&r.sm)
		s.Int(&r.warp)
	})
	if s.Loading() {
		sm.warps = make([]warpState, sm.cfg.WarpsPerSM)
	}
	s.Match("warps per SM", len(sm.warps))
	for w := range sm.warps {
		ws := &sm.warps[w]
		s.Int(&ws.computeLeft)
		ws.pendingMem.walkState(s)
		s.Bool(&ws.haveMem)
		s.Int(&ws.outstanding)
		s.U64(&ws.readyAt)
		s.Bool(&ws.done)
		if s.Loading() {
			if s.Err() != nil {
				return // a failed restore seeds no further programs
			}
			ws.prog = wl.NewWarp(kernel, sm.id, w)
		}
		prog, ok := ws.prog.(StatefulWarpProgram)
		if !ok {
			s.Failf("gpu: sm %d warp %d program (%T) is not snapshottable", sm.id, w, ws.prog)
			return
		}
		prog.WalkState(s)
	}
}

func (b *L2Bank) walkState(s *snapshot.State) {
	b.c.WalkState(s)
	flatmap.WalkMultiMap(s, &b.waiters, func(s *snapshot.State, r *memdef.Request) {
		r.WalkState(s)
	})
	ringbuf.Walk(s, &b.input, func(s *snapshot.State, lr *l2Request) {
		lr.req.WalkState(s)
		s.U64(&lr.arrived)
	})
	ringbuf.Walk(s, &b.toMEE, func(s *snapshot.State, r *memdef.Request) {
		r.WalkState(s)
	})
	s.U64(&b.sampleAccesses)
	s.U64(&b.sampleMisses)
	s.F64(&b.sampledRate)
	s.Bool(&b.haveSample)
	s.U64(&b.VictimHits)
	s.U64(&b.VictimPushes)
}

// SaveState captures the complete simulator state at a paused RunUntil
// boundary. wl must be the workload the run was driving. A run that was
// never paused mid-kernel, or that was cancelled (e.g. by the stall
// watchdog), has nothing coherent to capture and errors out — a cancelled
// cell must never leave a loadable snapshot behind.
func (s *System) SaveState(e *snapshot.Encoder, wl Workload) error {
	if !s.midKernel {
		return fmt.Errorf("gpu: SaveState requires a run paused mid-kernel (use RunUntil)")
	}
	if s.cancelled {
		return fmt.Errorf("gpu: refusing to snapshot a cancelled run")
	}
	swl, ok := wl.(StatefulWorkload)
	if !ok {
		return fmt.Errorf("gpu: workload %T is not snapshottable", wl)
	}
	if s.eng != nil && s.tele != nil {
		// Shard counter buffers must fold into the collector before its
		// state is captured (event captures are replayed every tick, so
		// only counters are outstanding between ticks).
		s.eng.flushCounters()
	}
	st := snapshot.Saving(e)
	s.walkState(st, swl)
	return st.Err()
}

// LoadState restores a snapshot into a freshly built System. wl must be a
// fresh instance of the captured workload (same spec and seed); if the
// parent run had a telemetry collector attached, an equally configured
// collector must be attached before loading.
func (s *System) LoadState(d *snapshot.Decoder, wl Workload) error {
	swl, ok := wl.(StatefulWorkload)
	if !ok {
		return fmt.Errorf("gpu: workload %T is not snapshottable", wl)
	}
	st := snapshot.Loading(d)
	s.walkState(st, swl)
	return st.Err()
}

// walkState is the one walk behind SaveState and LoadState. The
// workload's state comes last: restoring the SMs rebuilds warp programs
// via NewWarp, which repopulates shared workload state (e.g. the pacing
// frontier) as a side effect, and the final workload walk overwrites all
// of it with the captured values.
func (s *System) walkState(st *snapshot.State, wl StatefulWorkload) {
	st.Match("gpu configuration and workload fingerprint", s.fingerprint(wl.Name()))
	st.U64(&s.cycle)
	st.U64(&s.instr)
	st.Int(&s.kernelIdx)
	st.U64(&s.runDeadline)
	if st.Loading() {
		if st.Err() != nil {
			return
		}
		if s.kernelIdx < 0 || s.kernelIdx >= wl.Kernels() {
			st.Failf("gpu: snapshot kernel index %d out of range (%d kernels)", s.kernelIdx, wl.Kernels())
			return
		}
		s.midKernel = true
		s.cancelled = false
		if ga, ok := wl.(GridAware); ok {
			ga.SetGrid(s.cfg.SMs, s.cfg.WarpsPerSM)
		}
	}

	st.Match("SMs", len(s.sms))
	for _, sm := range s.sms {
		sm.walkState(st, wl, s.kernelIdx)
	}
	st.Match("partitions", len(s.toPart))
	for p := range s.toPart {
		ringbuf.Walk(st, &s.toPart[p], func(st *snapshot.State, x *xbarEntry) {
			x.r.WalkState(st)
			st.U64(&x.at)
		})
	}
	ringbuf.Walk(st, &s.toSM, func(st *snapshot.State, r *respEntry) {
		st.U64((*uint64)(&r.phys))
		st.Int(&r.sm)
		st.U64(&r.at)
	})
	st.Match("L2 partitions", len(s.l2))
	for p := range s.l2 {
		st.Match("L2 banks per partition", len(s.l2[p]))
		for _, b := range s.l2[p] {
			b.walkState(st)
		}
	}
	for _, mee := range s.mees {
		mee.WalkState(st)
	}
	for _, ch := range s.channels {
		ch.WalkState(st)
	}
	// Host-tier presence is fully determined by cfg.HostTier, which the
	// fingerprint covers, so the blob needs no presence marker. A restore
	// builds the tier, then walks its state into it.
	if s.cfg.HostTier {
		if st.Loading() {
			s.startUVM(wl)
		}
		s.uvm.tier.WalkState(st)
		st.U64(&s.uvm.roTransitions)
	}
	wl.WalkState(st)
	st.Match("telemetry collector attached", s.tele != nil)
	if s.tele != nil {
		s.tele.WalkState(st)
	}
}
