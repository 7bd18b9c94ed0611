package gpu

// The tick engine: every simulated cycle runs through engine.tick, which
// splits the cycle's work into shard tasks. With one shard the tasks run
// inline on the calling goroutine; with Config.ParallelShards = S > 1 they
// run on a fixed worker pool, and results stay byte-identical to the
// one-shard run.
//
// # Shard topology
//
// The per-tick work splits on two axes into 2*S tasks for S shards:
//
//   - SM shards: contiguous SM index ranges. An SM's issue stage touches
//     only SM-local state (warps, L1, its own miss queue) and its fill
//     stage only its own L1/waiters, so SMs are embarrassingly parallel
//     once crossbar admission is taken out of the tick (see below).
//   - Partition shards: contiguous ranges of {2 L2 banks + MEE + DRAM
//     channel} partition stacks, run phase-major over the range: crossbar
//     delivery for every partition, then the L2 banks, then the MEEs,
//     then the DRAM channels. Under the locality gate (below) a
//     partition's phases form a closed system — requests arrive only
//     through its own toPart queue and leave only as buffered responses —
//     so several ranges are equivalent to one range covering every
//     partition.
//
// # Barrier protocol (per tick)
//
// Phase 1 (sequential): the progress heartbeat, the workload's frontier
// freeze (TickSynced), the telemetry sample boundary, the host tier's
// migration completions, every SM's crossbar drain in SM order (admission
// depth depends on earlier SMs' same-tick drains, so it cannot shard).
//
// Phase 2: the shard tasks. Each task computes against the frozen queues;
// responses go to per-shard outboxes instead of the shared response ring,
// and under a pool probe events go to per-shard telemetry buffers, so no
// shared state is written concurrently. Inline, the SM task runs first,
// so SM events reach the collector ahead of the partition phases', as
// the pool's replay orders them.
//
// Phase 3 (sequential, the deterministic exchange): responses due this
// tick are popped from the response ring, outboxes are appended in fixed
// (phase-major, partition-ascending) order, shard telemetry buffers are
// replayed in the same fixed order, and the shard-local event horizons
// are reduced to the global fast-forward jump. Config.Validate requires
// XbarLatency >= 1, so no response appended here is due this tick.
//
// Because every cross-shard interaction happens in the sequential phases
// in a fixed order, message arrival order is independent of goroutine
// scheduling, which is the whole determinism argument.
//
// # Locality gate
//
// startEngine runs one shard when the design routes metadata across
// partitions (opts.Enabled without LocalMetadata: sendMeta then targets
// foreign partitions mid-phase, and DRAM completions return to foreign
// MEEs) or when the runtime sanitizer is armed (invariant.Failf's handler
// is not safe to call from worker goroutines). One partition range then
// covers every partition, so foreign traffic stays inside the range.

import (
	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/obs"
	"shmgpu/internal/pool"
	"shmgpu/internal/secmem"
	"shmgpu/internal/telemetry"
)

// Capture lanes: the within-tick phase a partition shard's captured
// telemetry events were emitted in. A partition task runs its contiguous
// range phase-major, so replaying lane-major, shard-ascending reproduces
// the one-shard emission order (which runs each phase across all
// partitions before the next phase).
const (
	laneDelivery = iota // crossbar → L2 enqueue
	laneBank            // L2 bank ticks
	laneMEE             // MEE ticks + L2 fills
	laneDRAM            // DRAM ticks + MEE completions
	numPhaseLanes
)

// engine is the tick engine for one System.
type engine struct {
	sys *System
	// pool runs the shard tasks when shards > 1; nil at one shard, where
	// tick calls the tasks inline.
	pool   *pool.Pool
	shards int

	// smLo/smHi and partLo/partHi are the contiguous [lo,hi) index ranges
	// owned by each shard (possibly empty when shards exceed units).
	smLo, smHi     []int //shm:shard-bounds
	partLo, partHi []int //shm:shard-bounds

	// tasks are the 2*shards prebuilt closures handed to the pool every
	// tick: partition tasks first, then SM tasks (order is irrelevant —
	// they are mutually independent within a tick).
	tasks []func()
	// now is the cycle being ticked, published to the tasks before the
	// fork (the pool's channel handoff orders it).
	now uint64

	// outbox3/outbox4 buffer the tick's L2 read responses per partition
	// shard: outbox3 from the bank tick phase, outbox4 from the MEE fill
	// phase. A partition task runs its contiguous range phase-major, so
	// appending the outboxes shard-ascending, bank phase first, is the
	// phase-major, partition-ascending push order. respond3/respond4 are
	// the prebuilt per-shard closures the bank/MEE phases emit through.
	outbox3, outbox4 [][]respEntry //shm:sharded
	respond3         []func(memdef.Request, uint64)
	respond4         []func(memdef.Request, uint64)

	// partProbes (per partition shard) and smProbes (per SM shard) buffer
	// telemetry when a collector is attached under a pool; nil otherwise.
	partProbes []*telemetry.ShardProbe //shm:sharded
	smProbes   []*telemetry.ShardProbe //shm:sharded

	// horizons collects each task's shard-local next-event cycle; horizon
	// is their reduction for the tick just run, read by advanceCycle.
	horizons []uint64 //shm:sharded
	horizon  uint64
}

// shardRanges splits n units into s contiguous [lo,hi) ranges.
func shardRanges(n, s int) (lo, hi []int) {
	lo = make([]int, s)
	hi = make([]int, s)
	for i := 0; i < s; i++ {
		lo[i] = i * n / s
		hi[i] = (i + 1) * n / s
	}
	return lo, hi
}

// startEngine builds the tick engine with ParallelShards shards, or one
// when that is below 2 or the locality gate applies. Idempotent; called at
// run start and on resume, and directly by tests that drive engine.tick.
func (s *System) startEngine() {
	if s.eng != nil {
		return
	}
	shards := s.cfg.ParallelShards
	if shards < 2 || (s.opts.Enabled && !s.opts.LocalMetadata) || invariant.Enabled() {
		shards = 1
	}
	s.eng = newEngine(s, shards)
}

// stopEngine tears the engine down: pool workers exit and component
// probes are restored to the collector.
func (s *System) stopEngine() {
	if s.eng == nil {
		return
	}
	if s.eng.pool != nil {
		s.eng.pool.Close()
		s.AttachTelemetry(s.tele)
	}
	s.eng = nil
}

func newEngine(s *System, shards int) *engine {
	e := &engine{sys: s, shards: shards}
	e.smLo, e.smHi = shardRanges(len(s.sms), shards)
	e.partLo, e.partHi = shardRanges(s.cfg.Partitions, shards)

	e.outbox3 = make([][]respEntry, shards)
	e.outbox4 = make([][]respEntry, shards)
	e.respond3 = make([]func(memdef.Request, uint64), shards)
	e.respond4 = make([]func(memdef.Request, uint64), shards)
	for k := 0; k < shards; k++ {
		k := k
		e.respond3[k] = func(r memdef.Request, now uint64) {
			if r.SM < 0 {
				return
			}
			// outbox3[k] is shard k's private buffer; only k's partition task emits through this closure.
			e.outbox3[k] = append(e.outbox3[k], respEntry{phys: memdef.SectorAddr(r.Phys), sm: r.SM, at: now + s.cfg.XbarLatency}) //shm:shard-ok //shm:alloc-ok amortized per-shard buffer growth
		}
		e.respond4[k] = func(r memdef.Request, now uint64) {
			if r.SM < 0 {
				return
			}
			// outbox4[k] is shard k's private buffer; only k's partition task emits through this closure.
			e.outbox4[k] = append(e.outbox4[k], respEntry{phys: memdef.SectorAddr(r.Phys), sm: r.SM, at: now + s.cfg.XbarLatency}) //shm:shard-ok //shm:alloc-ok amortized per-shard buffer growth
		}
	}
	e.horizons = make([]uint64, 2*shards)
	if shards == 1 {
		return e
	}

	e.pool = pool.New(2 * shards)
	if s.tele != nil {
		capture := s.tele.Config().CaptureEvents
		e.partProbes = make([]*telemetry.ShardProbe, shards)
		e.smProbes = make([]*telemetry.ShardProbe, shards)
		for k := 0; k < shards; k++ {
			e.partProbes[k] = telemetry.NewShardProbe(numPhaseLanes, capture)
			e.smProbes[k] = telemetry.NewShardProbe(1, capture)
		}
		e.installProbes()
	}
	e.tasks = make([]func(), 0, 2*shards)
	for k := 0; k < shards; k++ {
		k := k
		e.tasks = append(e.tasks, func() { e.partTask(k) })
	}
	for k := 0; k < shards; k++ {
		k := k
		e.tasks = append(e.tasks, func() { e.smTask(k) })
	}
	return e
}

// installProbes points every component at its shard buffer (stopEngine
// restores the collector via AttachTelemetry).
func (e *engine) installProbes() {
	s := e.sys
	for k := 0; k < e.shards; k++ {
		for i := e.smLo[k]; i < e.smHi[k]; i++ {
			s.sms[i].probe = e.smProbes[k]
		}
		probe := telemetry.Probe(e.partProbes[k])
		for p := e.partLo[k]; p < e.partHi[k]; p++ {
			for _, b := range s.l2[p] {
				b.probe = probe
			}
			s.channels[p].SetProbe(probe, p)
			s.mees[p].SetProbe(probe)
		}
	}
}

// flushCounters folds every shard buffer's counters and histograms into
// the collector (commutative, so shard order is irrelevant). Must run
// before the collector stamps counters: at sample boundaries and before
// FinishRun. A no-op at one shard, where components emit directly.
func (e *engine) flushCounters() {
	for _, sp := range e.smProbes {
		e.sys.tele.AbsorbCounts(sp)
	}
	for _, sp := range e.partProbes {
		e.sys.tele.AbsorbCounts(sp)
	}
}

// tick simulates cycle now. Everything it reaches is the steady-state hot
// path the hotalloc/syncfree analyzers police. See the file comment for
// the protocol.
//
//shm:tick-root
func (e *engine) tick(now uint64) {
	s := e.sys

	// --- Phase 1: sequential pre-phase ---

	// Progress heartbeat: one comparison per tick, one atomic store per
	// interval, no allocations. Deliberately outside the event horizon —
	// a lagging heartbeat is fine, a horizon entry would change skip
	// cycles and break byte-identity with unobserved runs.
	if s.obsProbe != nil && now >= s.obsNextAt {
		s.obsProbe.Observe(obs.Event{Kind: obs.EvProgress, Cycle: now}) //shm:cold interval-throttled heartbeat: fires once per obsInterval (8192 cycles), not per tick

		s.obsNextAt = now + s.obsInterval
	}
	if s.syncer != nil {
		s.syncer.SyncTick()
	}
	if s.tele != nil {
		if at := s.tele.NextSampleAt(); at != ^uint64(0) && now >= at {
			e.flushCounters()
		}
		s.tele.MaybeSample(now, s.snapFn)
	}
	s.tickNow = now

	// The host tier completes due page migrations before the crossbar
	// drains, so a page ready at cycle N admits this tick's retries.
	if s.uvm != nil {
		s.uvm.tick(now)
	}

	// Crossbar admission in SM order: each drain sees the partition queue
	// depths left by earlier SMs' drains. Issue never touches the
	// crossbar, so draining every SM before any SM issues is exact.
	for _, sm := range s.sms {
		sm.drainMisses(s.acceptFn)
	}

	// --- Phase 2: shard tasks ---
	e.now = now
	if e.pool == nil {
		e.smTask(0)
		e.partTask(0)
	} else {
		e.pool.Run(e.tasks)
	}

	// --- Phase 3: deterministic exchange ---
	for s.toSM.Len() > 0 && s.toSM.Front().at <= now {
		s.toSM.PopFront()
	}
	for k := range e.outbox3 {
		for _, r := range e.outbox3[k] {
			s.toSM.Push(r)
		}
		e.outbox3[k] = e.outbox3[k][:0]
	}
	for k := range e.outbox4 {
		for _, r := range e.outbox4[k] {
			s.toSM.Push(r)
		}
		e.outbox4[k] = e.outbox4[k][:0]
	}
	if e.partProbes != nil {
		e.replayCaptures()
	}
	if !s.cfg.DisableFastForward {
		e.reduceHorizon(now)
	}
}

// smTask runs shard k's SMs: the issue stage, then delivery of the fills
// due this tick to owned SMs. The response ring is maturity-ordered and
// only the exchange writes it, so the due fills are its front prefix.
// Fills for one SM are applied in ring order (L1 LRU state makes that
// order load-bearing), and fills never touch other SMs or emit probe
// events.
//
//shm:fork-root
func (e *engine) smTask(k int) {
	s := e.sys
	now := e.now
	lo, hi := e.smLo[k], e.smHi[k]
	sms := s.sms
	for i := lo; i < hi; i++ {
		sms[i].issueTick(now)
	}
	for j := 0; j < s.toSM.Len(); j++ {
		en := s.toSM.At(j)
		if en.at > now {
			break
		}
		if en.sm >= lo && en.sm < hi {
			sms[en.sm].onFill(en.phys, now)
		}
	}
	next := ^uint64(0)
	if !s.cfg.DisableFastForward {
		next = e.smHorizon(lo, hi, now)
	}
	e.horizons[e.shards+k] = next
}

// partTask runs shard k's partition range phase-major: crossbar
// delivery, L2 banks, MEEs, then DRAM channels, each across the whole
// range before the next.
//
//shm:fork-root
func (e *engine) partTask(k int) {
	s := e.sys
	now := e.now
	lo, hi := e.partLo[k], e.partHi[k]
	toPart, l2, mees, channels := s.toPart, s.l2, s.mees, s.channels
	var probe *telemetry.ShardProbe
	if e.partProbes != nil {
		probe = e.partProbes[k]
	}

	// Crossbar delivery of matured requests. Delivery stops at the first
	// entry whose target bank is full: intentional head-of-line blocking
	// (the per-partition crossbar port is a FIFO link, not a router). The
	// queue is maturity-ordered, so the loop also stops at the first
	// entry still in flight.
	if probe != nil {
		probe.SetLane(laneDelivery)
	}
	for p := lo; p < hi; p++ {
		q := &toPart[p]
		for q.Len() > 0 && q.Front().at <= now {
			front := q.Front()
			if !l2[p][s.bankOf(front.r.Local)].enqueue(front.r, now) {
				break
			}
			q.PopFront()
		}
	}

	// L2 banks process requests, forwarding misses to their MEE.
	if probe != nil {
		probe.SetLane(laneBank)
	}
	respond := e.respond3[k]
	for p := lo; p < hi; p++ {
		mee := mees[p]
		for _, bank := range l2[p] {
			bank.tick(now, mee, respond)
		}
	}

	// MEEs advance; completed reads fill the L2 banks.
	if probe != nil {
		probe.SetLane(laneMEE)
	}
	respond = e.respond4[k]
	for p := lo; p < hi; p++ {
		mee := mees[p]
		for _, r := range mee.Tick(now) {
			l2[p][s.bankOf(r.Local)].onFill(r.Local, now, respond)
		}
	}

	// DRAM channels advance; completions return to the MEE owning the
	// token. Foreign owners arise only from cross-partition metadata
	// routing, which the locality gate confines to one range covering
	// every partition.
	if probe != nil {
		probe.SetLane(laneDRAM)
	}
	for p := lo; p < hi; p++ {
		for _, done := range channels[p].Tick(now) {
			if owner := secmem.TokenOwner(done.Token); owner >= lo && owner < hi {
				mees[owner].OnDRAMComplete(done.Token, now)
			}
		}
	}

	// Inline, the SM task has already published its horizon; at now+1 it
	// decides the reduction, so the partition scan is skipped.
	next := ^uint64(0)
	if !s.cfg.DisableFastForward && (e.pool != nil || e.horizons[e.shards+k] > now+1) {
		next = e.partHorizon(lo, hi, now)
	}
	e.horizons[k] = next
}

// The event horizon is the earliest cycle at which any component can
// change state; advanceCycle jumps the clock there. Each component
// reports the earliest cycle strictly after now at which ticking it is
// not a no-op (SM.nextEvent, L2Bank.nextEvent, MEE.NextEvent,
// Channel.NextEvent, and the queue fronts), or ^uint64(0) if only
// another component's progress can make it actable. The shard-local
// scans below stop at now+1 — nothing can be earlier.

// smHorizon is the event horizon of SMs [lo,hi).
func (e *engine) smHorizon(lo, hi int, now uint64) uint64 {
	sms := e.sys.sms
	next := ^uint64(0)
	for i := lo; i < hi; i++ {
		if v := sms[i].nextEvent(now); v < next {
			if v <= now+1 {
				return now + 1
			}
			next = v
		}
	}
	return next
}

// partHorizon is the event horizon of partitions [lo,hi), scanned
// component class by component class, cheapest first. A matured crossbar
// head retries delivery every cycle (it may be waiting out bank
// back-pressure), so its front cycle clamps to now+1.
func (e *engine) partHorizon(lo, hi int, now uint64) uint64 {
	s := e.sys
	toPart, l2, mees, channels := s.toPart, s.l2, s.mees, s.channels
	next := ^uint64(0)
	for p := lo; p < hi; p++ {
		if q := &toPart[p]; q.Len() > 0 && q.Front().at < next {
			next = q.Front().at
		}
	}
	if next <= now+1 {
		return now + 1
	}
	for p := lo; p < hi; p++ {
		for _, b := range l2[p] {
			if v := b.nextEvent(now); v < next {
				if v <= now+1 {
					return now + 1
				}
				next = v
			}
		}
	}
	for p := lo; p < hi; p++ {
		if v := mees[p].NextEvent(now); v < next {
			if v <= now+1 {
				return now + 1
			}
			next = v
		}
	}
	for p := lo; p < hi; p++ {
		if v := channels[p].NextEvent(now); v < next {
			if v <= now+1 {
				return now + 1
			}
			next = v
		}
	}
	return next
}

// replayCaptures appends the tick's buffered capture-worthy events to the
// collector's trace in the one-shard emission order: SM shards first
// (the SM task runs first inline; SM kinds are not currently
// capture-worthy, so this is future-proofing), then lane-major,
// shard-ascending. Counters are left in the shard buffers until the
// next sample boundary.
func (e *engine) replayCaptures() {
	any := false
	for _, sp := range e.smProbes {
		if sp.HasCaptures() {
			any = true
			break
		}
	}
	if !any {
		for _, sp := range e.partProbes {
			if sp.HasCaptures() {
				any = true
				break
			}
		}
	}
	if !any {
		return
	}
	c := e.sys.tele
	for _, sp := range e.smProbes {
		c.AbsorbLane(sp, 0)
	}
	for lane := 0; lane < numPhaseLanes; lane++ {
		for _, sp := range e.partProbes {
			c.AbsorbLane(sp, lane)
		}
	}
}

// reduceHorizon folds the shard-local horizons, the response ring's
// front, the host tier's next event and the sampler's next due cycle
// (samples must be taken at exactly the cycles an every-cycle run would
// take them) into the global event horizon.
func (e *engine) reduceHorizon(now uint64) {
	s := e.sys
	next := ^uint64(0)
	for _, h := range e.horizons {
		if h < next {
			next = h
		}
	}
	if next <= now+1 {
		e.horizon = now + 1
		return
	}
	if s.toSM.Len() > 0 && s.toSM.Front().at < next {
		next = s.toSM.Front().at
	}
	if s.uvm != nil {
		if v := s.uvm.tier.NextEvent(now); v < next {
			next = v
		}
	}
	if s.tele != nil {
		if v := s.tele.NextSampleAt(); v < next {
			next = v
		}
	}
	if next < now+1 {
		next = now + 1
	}
	e.horizon = next
}
