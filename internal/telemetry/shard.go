package telemetry

// ShardProbe is a per-shard event buffer for parallel tick execution: it
// implements Probe with no locks by accumulating counters, histogram
// observations, and captured events locally, for deterministic merging
// into the run's Collector at fixed synchronization points. The sharded
// engine gives each partition shard (and each SM cluster) its own
// ShardProbe, so concurrent emits never share state; the engine then
// replays captures in a fixed lane/shard order and flushes counters at
// sample boundaries, making the merged Collector byte-identical to a
// one-shard run's.
//
// Lanes order the captured events within one tick: the engine switches
// the active lane as it moves through the tick's phases (crossbar
// delivery, L2, MEE, DRAM), and the replay walks lanes in phase-major,
// shard-ascending order — exactly the emission order of a one-shard
// run, which interleaves shards phase by phase.
type ShardProbe struct {
	counts [NumEventKinds]uint64

	dramQueueDepth     Histogram
	dramServiceLatency Histogram
	meeReadLatency     Histogram

	capture bool
	lanes   [][]Event
	lane    int
	pending int
}

// NewShardProbe builds a shard buffer with the given number of capture
// lanes. capture mirrors the collector's Config.CaptureEvents; when
// false, capture-worthy events are counted but not buffered.
func NewShardProbe(lanes int, capture bool) *ShardProbe {
	return &ShardProbe{capture: capture, lanes: make([][]Event, lanes)}
}

// SetLane selects the capture lane subsequent emissions land in.
func (p *ShardProbe) SetLane(lane int) { p.lane = lane }

// HasCaptures reports whether any lane holds unreplayed events.
func (p *ShardProbe) HasCaptures() bool { return p.pending > 0 }

// Emit implements Probe. Unlike Collector.Emit it applies no MaxEvents
// bound — the cap is enforced during replay (AbsorbLane), where the
// global emission order is known; per-tick buffers stay small because
// the engine replays every tick.
func (p *ShardProbe) Emit(e Event) {
	p.counts[e.Kind]++
	switch e.Kind {
	case EvDRAMEnqueue:
		p.dramQueueDepth.Observe(e.Value)
	case EvDRAMService:
		p.dramServiceLatency.Observe(e.Value)
	case EvMEEReadDone:
		p.meeReadLatency.Observe(e.Value)
	}
	if p.capture && captureWorthy[e.Kind] {
		p.lanes[p.lane] = append(p.lanes[p.lane], e) //shm:alloc-ok amortized lane-buffer growth, drained and reused every tick
		p.pending++
	}
}

// AbsorbCounts folds the shard's counters and histogram observations into
// the collector and zeroes them. Counter addition and histogram merging
// are commutative, so absorption order across shards does not matter; the
// engine calls this at sample boundaries and at end of run, before the
// collector stamps counters into a timeline sample.
func (c *Collector) AbsorbCounts(p *ShardProbe) {
	if c == nil || p == nil {
		return
	}
	for k := range p.counts {
		c.counts[k] += p.counts[k]
	}
	p.counts = [NumEventKinds]uint64{}
	c.DRAMQueueDepth.Merge(&p.dramQueueDepth)
	c.DRAMServiceLatency.Merge(&p.dramServiceLatency)
	c.MEEReadLatency.Merge(&p.meeReadLatency)
	p.dramQueueDepth = Histogram{}
	p.dramServiceLatency = Histogram{}
	p.meeReadLatency = Histogram{}
}

// AbsorbLane replays one lane's captured events into the collector's
// trace in emission order, honoring the MaxEvents bound and the dropped
// counter exactly as direct emission would, then clears the lane (keeping
// its capacity). Counters are NOT touched — Emit already counted the
// events when they were buffered; AbsorbCounts moves those.
func (c *Collector) AbsorbLane(p *ShardProbe, lane int) {
	if c == nil || p == nil || lane >= len(p.lanes) {
		return
	}
	buf := p.lanes[lane]
	if len(buf) == 0 {
		return
	}
	for _, e := range buf {
		if len(c.events) < c.cfg.MaxEvents {
			c.events = append(c.events, e) //shm:alloc-ok amortized growth, capped at cfg.MaxEvents
		} else {
			c.dropped++
		}
	}
	p.pending -= len(buf)
	p.lanes[lane] = buf[:0]
}
