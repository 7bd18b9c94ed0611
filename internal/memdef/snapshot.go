package memdef

import "shmgpu/internal/snapshot"

// Checkpoint/restore for requests, shared by every component that queues
// them (crossbar rings, L2 waiter lists, MEE pipelines). Cold path only.

// WalkState saves or restores the request.
func (r *Request) WalkState(s *snapshot.State) {
	s.U64((*uint64)(&r.Phys))
	s.U64((*uint64)(&r.Local))
	s.Int(&r.Partition)
	s.U8((*uint8)(&r.Kind))
	s.U8((*uint8)(&r.Space))
	s.Int(&r.SM)
	s.Int(&r.Warp)
	s.U64(&r.ID)
}
