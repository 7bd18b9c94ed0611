package detectors

import "shmgpu/internal/snapshot"

// Checkpoint/restore for the detector state machines. Restore targets must
// be constructed with identical configs; table sizes are validated, not
// reconstructed. Accuracy maps are serialized in sorted-key order — the
// settlement loops already sort, so the map iteration order is not
// observable and a canonical order keeps the snapshot bytes deterministic.
// Cold path only.

// WalkState saves or restores the predictor table and attribution state.
func (p *ReadOnlyPredictor) WalkState(s *snapshot.State) {
	s.Match("read-only predictor entries", len(p.bits))
	for i := range p.bits {
		s.Bool(&p.bits[i])
		s.Bool(&p.everMarked[i])
		s.U64(&p.clearedBy[i])
		s.Bool(&p.hasClear[i])
	}
}

// WalkState saves or restores the predictor table and training
// attribution.
func (p *StreamingPredictor) WalkState(s *snapshot.State) {
	s.Match("streaming predictor entries", len(p.bits))
	for i := range p.bits {
		s.Bool(&p.bits[i])
		s.U64(&p.trainedBy[i])
		s.Bool(&p.hasTrain[i])
	}
}

// WalkState saves or restores the tracker file: every tracker slot
// verbatim (slot index is the allocation order tiebreaker, so layout is
// observable) plus the occupancy counters.
func (f *MATFile) WalkState(s *snapshot.State) {
	s.Match("MAT trackers", len(f.trackers))
	for i := range f.trackers {
		tr := &f.trackers[i]
		s.Bool(&tr.inUse)
		s.U64(&tr.chunk)
		s.U64(&tr.blockBit)
		s.Bool(&tr.hadWrite)
		s.Int(&tr.accesses)
		s.U64(&tr.deadline)
		s.U64(&tr.hardDeadline)
	}
	s.U64(&f.Monitored)
	s.U64(&f.Skipped)
}

// WalkState saves or restores the buffered per-region tallies.
func (a *ReadOnlyAccuracy) WalkState(s *snapshot.State) {
	snapshot.SortedMap(s, &a.regions, func(s *snapshot.State, pt **roRegionTally) {
		if s.Loading() {
			*pt = &roRegionTally{}
		}
		t := *pt
		s.Bool(&t.written)
		for p := range t.counts {
			for at := range t.counts[p] {
				s.U64(&t.counts[p][at])
			}
		}
	})
}

// WalkState saves or restores the buffered per-chunk tallies and the
// settled stats.
func (a *StreamingAccuracy) WalkState(s *snapshot.State) {
	snapshot.SortedMap(s, &a.chunks, func(s *snapshot.State, pt **streamChunkTally) {
		if s.Loading() {
			*pt = &streamChunkTally{}
		}
		t := *pt
		s.U64(&t.blockBit)
		s.Int(&t.accesses)
		for p := range t.counts {
			for at := range t.counts[p] {
				for ro := range t.counts[p][at] {
					s.U64(&t.counts[p][at][ro])
				}
			}
		}
	})
	a.out.WalkState(s)
}
