package flatmap

import (
	"fmt"

	"shmgpu/internal/snapshot"
)

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
	if s.Loading() && s.Err() == nil {
		if err := mm.checkLinks(); err != nil {
			s.Failf("flatmap: corrupt multimap: %v", err)
		}
	}
}

// checkLinks verifies a restored multimap's chains before Add or Drain
// follows them: every link is inside the arena, each key's list runs from
// its head to its tail and ends at -1, every node sits on exactly one
// chain (a key's list or the free list, so no chain has a cycle), and
// the queued count matches the nodes on key lists.
func (mm *MultiMap[V]) checkLinks() error {
	n := int32(len(mm.nodes))
	if !mm.init {
		// Add and Reset both initialize, so an uninitialized multimap is
		// the zero value.
		if n != 0 || mm.free != 0 || mm.vals != 0 || mm.m.Len() != 0 {
			return fmt.Errorf("uninitialized multimap with %d nodes, %d keys, free head %d, count %d",
				n, mm.m.Len(), mm.free, mm.vals)
		}
		return nil
	}
	seen := make([]bool, n)
	queued := 0
	for slot, used := range mm.m.used {
		if !used {
			continue
		}
		k, ref := mm.m.keys[slot], mm.m.vals[slot]
		if ref.head < 1 || ref.head > n || ref.tail < 1 || ref.tail > n {
			return fmt.Errorf("key %#x: list ends %d..%d outside the %d-node arena", k, ref.head-1, ref.tail-1, n)
		}
		last, length, err := mm.walkChain(ref.head-1, seen)
		if err != nil {
			return err
		}
		if last != ref.tail-1 {
			return fmt.Errorf("key %#x: list ends at node %d, tail says %d", k, last, ref.tail-1)
		}
		queued += length
	}
	if _, _, err := mm.walkChain(mm.free, seen); err != nil {
		return fmt.Errorf("free list: %v", err)
	}
	if queued != mm.vals {
		return fmt.Errorf("%d nodes queued on key lists, count says %d", queued, mm.vals)
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("node %d is on no chain", i)
		}
	}
	return nil
}

// walkChain marks the chain starting at first in seen and returns its
// last node (-1 for an empty chain) and its length. A node already marked
// means the chain cycles or joins another one.
func (mm *MultiMap[V]) walkChain(first int32, seen []bool) (last int32, length int, err error) {
	n := int32(len(mm.nodes))
	last = -1
	for i := first; i != -1; i = mm.nodes[i].next {
		if i < 0 || i >= n {
			return 0, 0, fmt.Errorf("link %d outside the %d-node arena", i, n)
		}
		if seen[i] {
			return 0, 0, fmt.Errorf("node %d is reached twice", i)
		}
		seen[i] = true
		last = i
		length++
	}
	return last, length, nil
}
