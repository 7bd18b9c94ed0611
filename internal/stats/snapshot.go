package stats

import "shmgpu/internal/snapshot"

// Checkpoint/restore for the counter types. All cold path.

// WalkState saves or restores the per-class byte counters.
func (t *Traffic) WalkState(s *snapshot.State) {
	for i := range t.ReadBytes {
		s.U64(&t.ReadBytes[i])
	}
	for i := range t.WriteBytes {
		s.U64(&t.WriteBytes[i])
	}
}

// WalkState saves or restores the cache counters.
func (c *CacheStats) WalkState(s *snapshot.State) {
	s.U64(&c.Hits)
	s.U64(&c.Misses)
	s.U64(&c.MSHRMerges)
	s.U64(&c.Evictions)
	s.U64(&c.Writebacks)
	s.U64(&c.SectorFills)
}

// WalkState saves or restores the outcome breakdown.
func (p *PredictorStats) WalkState(s *snapshot.State) {
	for i := range p.Counts {
		s.U64(&p.Counts[i])
	}
}

// WalkState saves or restores every counter in sorted-name order.
// Zero-valued counters are included: the key set itself is observable
// through Snapshot, so it must survive the round trip exactly. Loading
// replaces r's counters with the saved set.
func (r *Registry) WalkState(s *snapshot.State) {
	var snap []CounterValue
	if !s.Loading() {
		snap = r.Snapshot()
	}
	snapshot.Slice(s, &snap, func(s *snapshot.State, cv *CounterValue) {
		s.String(&cv.Name)
		s.U64(&cv.Value)
	})
	if s.Loading() {
		r.counters = nil
		for _, cv := range snap {
			r.Add(cv.Name, cv.Value)
		}
	}
}
