package flatmap

import "shmgpu/internal/snapshot"

// This file serializes the physical table layout — capacity plus
// (slot, key, value) triples for used slots — rather than a canonical
// key-sorted form. The slot layout is a pure function of the insert/delete
// history, and Range walks it directly, so restoring anything but the
// exact layout would let a restored run diverge from a from-scratch run
// the first time iteration order (or a subsequent backward-shift delete)
// becomes observable. All of this is cold checkpoint/restore code.

// maxTableCap bounds restored table capacities so a corrupt capacity field
// fails cleanly instead of driving a huge allocation.
const maxTableCap = 1 << 30

// WalkMap saves or restores m's physical slot layout: capacity, entry
// count, then (slot, key, value) for every used slot in slot order. val
// walks one value. Loading replaces m's contents.
func WalkMap[V any](s *snapshot.State, m *Map[V], val func(*snapshot.State, *V)) {
	capN, n := len(m.keys), m.n
	s.Int(&capN)
	s.Int(&n)
	if s.Loading() {
		if capN < 0 || capN > maxTableCap || (capN != 0 && capN&(capN-1) != 0) {
			s.Failf("flatmap: bad table capacity %d", capN)
			return
		}
		if n < 0 || n > capN {
			s.Failf("flatmap: bad entry count %d for capacity %d", n, capN)
			return
		}
		*m = Map[V]{n: n}
		if capN > 0 {
			m.keys = make([]uint64, capN)
			m.vals = make([]V, capN)
			m.used = make([]bool, capN)
		}
	}
	slot := -1
	for j := 0; j < n; j++ {
		if !s.Loading() {
			slot++
			for !m.used[slot] {
				slot++
			}
		}
		s.Int(&slot)
		if s.Loading() {
			if slot < 0 || slot >= capN || m.used[slot] {
				s.Failf("flatmap: bad slot index %d for capacity %d", slot, capN)
				return
			}
			m.used[slot] = true
		}
		s.U64(&m.keys[slot])
		val(s, &m.vals[slot])
	}
}

// VisitMultiMapNodes calls fn for every node in mm's arena in index order
// — a deterministic walk (the arena layout is a pure function of the
// Add/Drain history) that includes free-chain nodes, whose values are
// zero. Serializers use it to assign canonical identifiers to
// pointer-typed values before encoding them.
func VisitMultiMapNodes[V any](mm *MultiMap[V], fn func(v *V)) {
	for i := range mm.nodes {
		fn(&mm.nodes[i].v)
	}
}

// WalkMultiMap saves or restores mm's full physical state: the key table,
// the node arena (free-chain nodes are zero-valued — Drain and Reset zero
// released values), the free-list head, and the bookkeeping counters.
func WalkMultiMap[V any](s *snapshot.State, mm *MultiMap[V], val func(*snapshot.State, *V)) {
	WalkMap(s, &mm.m, func(s *snapshot.State, r *listRef) {
		s.I32(&r.head)
		s.I32(&r.tail)
	})
	snapshot.Slice(s, &mm.nodes, func(s *snapshot.State, nd *mmNode[V]) {
		val(s, &nd.v)
		s.I32(&nd.next)
	})
	s.I32(&mm.free)
	s.Int(&mm.vals)
	s.Bool(&mm.init)
	// A never-initialized multimap is all zeros (free == 0 with an empty
	// arena), so the free-head bound only applies once nodes exist.
	if s.Loading() && (mm.free < -1 || (len(mm.nodes) > 0 && int(mm.free) >= len(mm.nodes)) ||
		(len(mm.nodes) == 0 && mm.free > 0) || mm.vals < 0) {
		s.Failf("flatmap: bad multimap free head %d or count %d (%d nodes)", mm.free, mm.vals, len(mm.nodes))
	}
}
