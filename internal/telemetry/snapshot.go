package telemetry

import "shmgpu/internal/snapshot"

// Checkpoint/restore for the collector. A forked run must produce
// byte-identical telemetry artifacts (JSONL, timeline, histograms) to a
// from-scratch run, so the collector's position — sampled timeline,
// event trace, histogram contents, next-sample cycle — is part of the
// simulator state proper. The restore target must be a collector built by
// New with the identical (normalized) config. Cold path only.

func (h *Histogram) walkState(s *snapshot.State) {
	for i := range h.counts {
		s.U64(&h.counts[i])
	}
	s.U64(&h.n)
	s.U64(&h.sum)
	s.U64(&h.max)
}

func walkEvent(s *snapshot.State, ev *Event) {
	s.U64(&ev.Cycle)
	s.U8((*uint8)(&ev.Kind))
	s.U8(&ev.Class)
	s.I16(&ev.Part)
	s.I16(&ev.Unit)
	s.U64(&ev.Value)
}

func walkSample(s *snapshot.State, sn *Snapshot) {
	s.U64(&sn.Cycle)
	s.U64(&sn.Instructions)
	sn.Traffic.WalkState(s)
	sn.L1.WalkState(s)
	sn.L2.WalkState(s)
	sn.Ctr.WalkState(s)
	sn.MAC.WalkState(s)
	sn.BMT.WalkState(s)
	s.Int(&sn.DRAMPending)
	for i := range sn.Events {
		s.U64(&sn.Events[i])
	}
}

// WalkState saves or restores the collector's full state. (Config.MaxEvents
// is compared post-normalization: New maps 0 to DefaultMaxEvents on both
// sides.)
func (c *Collector) WalkState(s *snapshot.State) {
	s.Match("telemetry sample interval", c.cfg.SampleInterval)
	s.Match("telemetry event capture", c.cfg.CaptureEvents)
	s.Match("telemetry max events", c.cfg.MaxEvents)
	for i := range c.counts {
		s.U64(&c.counts[i])
	}
	c.DRAMQueueDepth.walkState(s)
	c.DRAMServiceLatency.walkState(s)
	c.MEEReadLatency.walkState(s)
	c.UVMMigrationLatency.walkState(s)
	c.UVMPrefetchBatch.walkState(s)
	snapshot.Slice(s, &c.events, walkEvent)
	s.U64(&c.dropped)
	s.U64(&c.timeline.Interval)
	snapshot.Slice(s, &c.timeline.Samples, walkSample)
	s.U64(&c.nextSampleAt)
	s.U64(&c.endCycle)
	s.Bool(&c.finished)
}
