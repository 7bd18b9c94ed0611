package cache

import (
	"shmgpu/internal/flatmap"
	"shmgpu/internal/snapshot"
)

// Checkpoint/restore. The restore target must already be a cache built by
// New with the identical configuration — the snapshot carries the config
// for validation only, never to reconstruct geometry. wbScratch is not
// serialized: its contents are only valid between a Write/Fill call and
// the caller consuming the returned slice, and no snapshot is ever taken
// inside that window. Cold path only.

// WalkState saves or restores the cache's mutable state, failing a
// restore on any configuration or geometry mismatch.
func (c *Cache) WalkState(s *snapshot.State) {
	s.Match("cache name", c.cfg.Name)
	s.Match("cache "+c.cfg.Name+" size", c.cfg.SizeBytes)
	s.Match("cache "+c.cfg.Name+" ways", c.cfg.Ways)
	s.Match("cache "+c.cfg.Name+" MSHRs", c.cfg.MSHRs)
	s.Match("cache "+c.cfg.Name+" merges per MSHR", c.cfg.MaxMergesPerMSHR)
	s.Match("cache "+c.cfg.Name+" lines", len(c.lines))
	for i := range c.lines {
		ln := &c.lines[i]
		s.U64(&ln.tag)
		s.U8(&ln.valid)
		s.U8(&ln.dirty)
		s.U64(&ln.lru)
		s.Bool(&ln.used)
	}
	flatmap.WalkMap(s, &c.mshrs, func(s *snapshot.State, m *mshr) {
		s.U8(&m.pending)
		s.Int(&m.merges)
	})
	s.U64(&c.lruClock)
	c.Stats.WalkState(s)
}
